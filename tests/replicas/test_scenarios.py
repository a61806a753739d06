"""End-to-end acceptance behaviour of the read-replica tier."""

import pytest

from repro.errors import ReplicationError
from repro.experiments.harness import run_scenario
from repro.faults.monitor import REPLICA_STALENESS
from repro.units import ms
from repro.workload.scenarios import Scenario, build_scenario


def test_steady_state_keeps_the_slo_and_the_monitor_silent():
    scenario = Scenario(n_objects=4, horizon=6.0, seed=0, n_replicas=2,
                        read_period=ms(5.0))
    result = run_scenario(scenario, monitor=True)
    assert result.monitor is not None
    assert result.monitor.violation_counts().get(REPLICA_STALENESS, 0) == 0
    metrics = result.metrics
    assert metrics.read_staleness.count > 0
    assert metrics.slo_violations == 0
    assert metrics.read_throughput > 0


def test_read_throughput_scales_with_replica_count():
    # At a 1 ms per-object read period 8 objects demand 8000 reads/s —
    # beyond one host's RPC capacity, so added replicas must raise the
    # delivered (closed-loop) throughput.
    base = Scenario(n_objects=8, horizon=6.0, seed=0, read_period=ms(1.0))
    replicated = Scenario(n_objects=8, horizon=6.0, seed=0, n_replicas=2,
                          read_period=ms(1.0))
    without = run_scenario(base).metrics.read_throughput
    with_replicas = run_scenario(replicated).metrics.read_throughput
    assert with_replicas > without * 1.3


def test_same_seed_replica_runs_are_digest_identical():
    scenario = Scenario(n_objects=4, horizon=4.0, seed=2, n_replicas=2,
                        read_period=ms(5.0))
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.service.trace.digest() == second.service.trace.digest()
    assert first.metrics == second.metrics


def test_unknown_read_policy_fails_when_the_value_is_made():
    # Before anything is built: a command line turns it into a usage error.
    with pytest.raises(ReplicationError, match="bogus"):
        Scenario(n_objects=2, n_replicas=1, read_period=ms(10.0),
                 read_policy="bogus")


def test_forged_stale_read_served_record_trips_the_invariant():
    """Negative control: the ReplicaStalenessInvariant must actually fire.

    No real run can produce a served read beyond its bound (the replica
    re-checks at completion), so forge the trace record and verify the
    online monitor flags exactly this invariant.
    """
    from repro.faults.monitor import InvariantMonitor

    scenario = Scenario(n_objects=2, horizon=2.0, seed=0, n_replicas=1,
                        read_period=ms(10.0))
    service = build_scenario(scenario)
    monitor = InvariantMonitor(service)
    monitor.attach()
    service.sim.schedule(
        1.0, lambda: service.trace.record(
            "read_served", object=0, server="replica0",
            service=service.service_name, issue=1.0, response=ms(0.2),
            staleness=0.9, bound=0.3))
    service.run(2.0)
    counts = monitor.violation_counts()
    assert counts.get(REPLICA_STALENESS, 0) == 1
    violation = [v for v in monitor.violations
                 if v.kind == REPLICA_STALENESS][0]
    assert violation.details["object"] == 0
    assert violation.details["excess"] == pytest.approx(0.6)


def test_foreign_service_read_served_records_are_ignored():
    from repro.faults.monitor import InvariantMonitor

    scenario = Scenario(n_objects=2, horizon=2.0, seed=0, n_replicas=1,
                        read_period=ms(10.0))
    service = build_scenario(scenario)
    monitor = InvariantMonitor(service)
    monitor.attach()
    # Same trace, different service name (cluster traces are shared): the
    # per-service monitor must not claim another shard's reads.
    service.sim.schedule(
        1.0, lambda: service.trace.record(
            "read_served", object=0, server="other/replica0",
            service="rtpb/g07", issue=1.0, response=ms(0.2),
            staleness=0.9, bound=0.3))
    service.run(2.0)
    assert monitor.violation_counts().get(REPLICA_STALENESS, 0) == 0
