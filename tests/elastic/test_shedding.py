"""Overload shedding: window degradation and cool-down restoration."""

import pytest

from repro.cluster.placement import PlacementRejection
from repro.elastic.shedding import OverloadShedder
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.elastic import ElasticScenario


def make_shedder(**shed_knobs):
    scenario = ClusterScenario(n_shards=2, n_hosts=4, n_objects=8,
                               horizon=10.0, seed=0)
    cluster = build_cluster(scenario)
    cluster.run(1.0)
    shedder = OverloadShedder(cluster, ElasticScenario(**shed_knobs))
    return cluster, shedder


def original_windows(cluster):
    return {spec.object_id: spec.window
            for spec in cluster.registered_specs()}


def test_shed_widens_the_target_groups_windows():
    cluster, shedder = make_shedder(shed_factor=2.0)
    before = original_windows(cluster)
    shedder._shed([])
    assert shedder.degradations > 0
    degraded = shedder.degraded_ids()
    assert degraded
    after = original_windows(cluster)
    # δ^B widens to δ^P + 2δ, i.e. the window doubles exactly.
    for object_id in degraded:
        assert after[object_id] == pytest.approx(2.0 * before[object_id])
    records = cluster.trace.select("window_degraded")
    assert len(records) == len(degraded)
    for record in records:
        assert record["window"] > record["old_window"]


def test_restore_returns_the_original_specs():
    cluster, shedder = make_shedder()
    before = original_windows(cluster)
    shedder._shed([])
    degraded = shedder.degraded_ids()
    assert degraded
    shedder._restore()
    assert shedder.restorations == len(degraded)
    assert shedder.degraded_ids() == []
    assert original_windows(cluster) == before
    restored = cluster.trace.select("window_restored")
    assert {record["object"] for record in restored} == set(degraded)


def test_rejection_suggestion_overrides_the_widen_factor():
    cluster, shedder = make_shedder(shed_factor=2.0)
    specs = cluster.registered_specs()
    # Ask for far more than the factor would grant.
    suggested = max(spec.delta_backup for spec in specs) + 1.0
    rejection = PlacementRejection(
        gid=0, time=cluster.sim.now, role="primary",
        reason="update-task-set-unschedulable",
        suggestion={"delta_backup": suggested})
    shedder._shed([rejection])
    degraded = shedder.degraded_ids()
    assert degraded
    by_id = {spec.object_id: spec for spec in cluster.registered_specs()}
    for object_id in degraded:
        assert by_id[object_id].delta_backup == pytest.approx(suggested)


def test_already_degraded_objects_are_not_degraded_twice():
    cluster, shedder = make_shedder()
    shedder._shed([])
    first = shedder.degraded_ids()
    count = shedder.degradations
    shedder._shed([])
    # The second pass moves on (another group) or does nothing — but it
    # never re-degrades the first batch.
    assert set(first) <= set(shedder.degraded_ids())
    for record in cluster.trace.select("window_degraded"):
        assert record["object"] not in first or record.time <= cluster.sim.now
    assert shedder.degradations >= count


def test_redline_pressure_degrades_live_without_violations():
    # End-to-end: a red line far below the baseline utilization keeps the
    # shedder under constant pressure; windows widen mid-run and the
    # online monitors re-key to the wider contract (zero violations).
    from repro.experiments.harness import run_scenario
    from repro.workload.elastic import ElasticScenario

    scenario = ElasticScenario(
        n_shards=2, n_hosts=4, n_objects=8, horizon=6.0, seed=0,
        shed_red_line=0.01, low_watermark=0.0, max_groups=0, max_hosts=0)
    result = run_scenario(scenario, monitor=True)
    summary = result.elastic_summary()
    assert summary["window_degradations"] > 0
    assert result.monitor.violation_counts() == {}
    assert summary["migration_violations"] == 0
