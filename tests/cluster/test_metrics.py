"""Cluster-scope metric aggregation: the two layers must reconcile."""

from repro.cluster.metrics import collect_group
from repro.cluster.service import ClusterService
from repro.experiments.harness import run_scenario
from repro.workload.cluster import ClusterScenario

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
