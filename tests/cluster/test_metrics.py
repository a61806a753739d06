"""Cluster-scope metric aggregation: the two layers must reconcile."""

import pytest

from repro.cluster.metrics import collect_group
from repro.cluster.service import ClusterService
from repro.experiments.harness import run_scenario
from repro.faults.schedule import FaultSchedule
from repro.metrics.collectors import failover_latencies
from repro.sim.trace import TraceRecord
from repro.workload.cluster import ClusterScenario, build_cluster

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
    for group in cluster.groups:
        recomputed = collect_group(group, SMALL.horizon, warmup=2.0)
        assert recomputed == result.per_group[group.name]


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
