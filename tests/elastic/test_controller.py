"""The elastic controller end-to-end: scale-out, scale-in, draining."""

from repro.experiments.harness import run_scenario
from repro.workload.cluster import ClusterScenario
from repro.workload.elastic import ElasticScenario


def test_idle_cluster_scales_in_and_retires_the_victim():
    # Baseline utilization sits well under a 0.5 low watermark: the idle
    # streak completes, the highest-gid group's objects migrate to the
    # survivors under the shrunken map, and the victim retires for good.
    scenario = ElasticScenario(
        n_shards=2, n_hosts=4, n_objects=8, horizon=10.0, seed=0,
        low_watermark=0.5, low_samples=4, max_groups=0, max_hosts=0)
    result = run_scenario(scenario, monitor=True)
    controller = result.controller
    assert controller.scale_ins >= 1
    assert controller.migrations_committed >= 1

    cluster = result.service
    active = [group for group in cluster.groups
              if not group.retired_for_good]
    assert len(active) == 1
    assert cluster.trace.select("cluster_group_retired")
    # Every object survived the consolidation, windows intact.
    assert len(cluster.registered_specs()) == 8
    assert cluster.shard_map.n_shards == 1
    # Zero violations across the reconfiguration.
    assert result.monitor.violation_counts() == {}
    assert result.violations == []


def test_scale_in_stops_at_min_groups():
    scenario = ElasticScenario(
        n_shards=2, n_hosts=4, n_objects=8, horizon=10.0, seed=0,
        low_watermark=0.5, low_samples=4, min_groups=2,
        max_groups=0, max_hosts=0)
    result = run_scenario(scenario, monitor=True)
    assert result.controller.scale_ins == 0
    active = [group for group in result.service.groups
              if not group.retired_for_good]
    assert len(active) == 2


def test_elastic_topology_summary_is_json_safe_accounting():
    scenario = ElasticScenario(
        n_shards=2, n_hosts=4, n_objects=6, horizon=4.0, seed=0,
        low_watermark=0.0, max_groups=0, max_hosts=0)
    result = run_scenario(scenario, monitor=True)
    summary = scenario.summary(result)
    for key in ("scale_outs", "scale_ins", "hosts_added",
                "migrations_committed", "migrations_aborted",
                "autoscale_actions", "window_degradations",
                "window_restorations", "migration_violations"):
        assert isinstance(summary[key], int), key


def test_elastic_disabled_attaches_no_controller():
    scenario = ElasticScenario(
        n_shards=2, n_hosts=4, n_objects=6, horizon=3.0, seed=0,
        elastic_enabled=False)
    result = run_scenario(scenario)
    assert result.controller is None
    # Without a controller the summary is the plain cluster's.
    assert scenario.summary(result) == ClusterScenario.summary(
        scenario, result)
    assert "scale_outs" not in scenario.summary(result)
