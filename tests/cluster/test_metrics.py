"""Cluster-scope metric aggregation: the two layers must reconcile."""

import pytest

from repro.cluster.metrics import collect_cluster
from repro.cluster.service import ClusterService
from repro.experiments.harness import run_scenario
from repro.faults.schedule import FaultSchedule
from repro.metrics.collectors import failover_latencies
from repro.sim.trace import TraceRecord
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.elastic import ElasticScenario

SMALL = ClusterScenario(n_shards=4, n_hosts=4, n_objects=8, horizon=8.0,
                        seed=0)


def test_per_group_metrics_reconcile_with_cluster_wide():
    result = run_scenario(SMALL)
    cluster = result.service
    assert isinstance(cluster, ClusterService)
    per_group = result.per_group
    assert list(per_group) == [group.name for group in cluster.groups]
    # Objects partition across shards: per-group counts sum to the whole.
    assert sum(metrics.admitted for metrics in per_group.values()) == \
        result.metrics.admitted == SMALL.n_objects
    assert sum(metrics.response.count for metrics in per_group.values()) == \
        result.metrics.response.count
    assert result.metrics.response.count > 0


def test_lossless_groups_deliver_everything():
    result = run_scenario(SMALL)
    for metrics in result.per_group.values():
        # At most one write may be caught in flight by the horizon cutoff.
        assert metrics.starved_writes <= 1
        if metrics.admitted:
            assert metrics.delivery_rate is not None
            assert metrics.delivery_rate >= 0.9


def test_collect_group_matches_the_harness_breakdown():
    result = run_scenario(SMALL)
    cluster = result.service
    assert isinstance(cluster, ClusterService)
    recomputed = collect_cluster(cluster, SMALL.horizon, warmup=2.0)
    assert recomputed.cluster == result.metrics
    assert recomputed.per_group == result.per_group
    assert list(recomputed.per_group) == [group.name
                                          for group in cluster.groups]


# ---------------------------------------------------------------------------
# Failover latency is a per-group quantity on a shared trace
# ---------------------------------------------------------------------------


def test_failover_latencies_are_scoped_to_the_crashed_group():
    # Two primaries of different groups crash 30 ms apart; both takeovers
    # land on the one shared trace.
    scenario = ClusterScenario(n_shards=4, n_hosts=6, n_objects=8,
                               horizon=8.0, seed=1)
    schedule = (FaultSchedule().crash(4.0, "g00/primary")
                .crash(4.03, "g01/primary"))
    cluster = run_scenario(scenario, fault_schedule=schedule).service
    by_group = {group.name: failover_latencies(group)
                for group in cluster.groups}
    assert by_group["rtpb/g00"] == [pytest.approx(0.090)]
    assert by_group["rtpb/g01"] == [pytest.approx(0.160)]
    assert by_group["rtpb/g02"] == by_group["rtpb/g03"] == []
    # The cluster view lists every group's, in crash order.
    assert failover_latencies(cluster) == \
        by_group["rtpb/g00"] + by_group["rtpb/g01"]


def test_crossing_failovers_pair_with_their_own_crash():
    # g00 crashes first but g01 finishes its takeover first: pairing each
    # crash with the next failover *on the trace* would swap them.
    cluster = build_cluster(ClusterScenario(n_shards=2, n_hosts=4,
                                            n_objects=4, seed=0))
    trace = cluster.trace
    for record in [
            TraceRecord(4.0, "server_crash",
                        {"server": "rtpb/g00@host0", "role": "primary"}),
            TraceRecord(4.1, "server_crash",
                        {"server": "rtpb/g01@host2", "role": "primary"}),
            TraceRecord(4.2, "failover", {"new_primary": "rtpb/g01@host3"}),
            TraceRecord(4.5, "failover", {"new_primary": "rtpb/g00@host1"}),
            # A backup crashing is nobody's failover.
            TraceRecord(5.0, "server_crash",
                        {"server": "rtpb/g00@host0", "role": "backup"})]:
        trace.ingest(record)
    assert failover_latencies(cluster) == [
        pytest.approx(0.5), pytest.approx(0.1)]
    assert failover_latencies(cluster.group_named("rtpb/g00")) == [
        pytest.approx(0.5)]
    assert failover_latencies(cluster.group_named("rtpb/g01")) == [
        pytest.approx(0.1)]


# ---------------------------------------------------------------------------
# Starved writes follow their objects across a live migration
# ---------------------------------------------------------------------------


def test_per_group_starved_writes_follow_migrated_objects():
    # An idle two-group cluster scales in: the victim's objects, written by
    # its client before the move, are answered by the survivor after it.
    scenario = ElasticScenario(
        n_shards=2, n_hosts=4, n_objects=8, horizon=10.0, seed=0,
        low_watermark=0.5, low_samples=4, max_groups=0, max_hosts=0)
    result = run_scenario(scenario)
    assert result.controller.migrations_committed >= 1
    trace = result.service.trace
    # Each migrated snapshot is written to the new primary and answered
    # like a client write: it counts as issued, as the benchmark counts it.
    snapshots = sum(record["snapshots"]
                    for record in trace.select("migration_transfer"))
    assert snapshots > 0
    issued = snapshots + sum(client.writes_issued
                             for client in result.service.clients)
    answered = (len(trace.select("client_response"))
                + len(trace.select("client_response_degraded")))
    assert issued - answered >= 0  # nothing for the clamp to hide
    assert result.metrics.starved_writes == issued - answered
    assert sum(metrics.starved_writes
               for metrics in result.per_group.values()) == \
        result.metrics.starved_writes
