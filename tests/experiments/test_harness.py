"""Unit tests for the experiment harness."""

import dataclasses
import pickle
from types import SimpleNamespace

import pytest

from repro.baselines import DISCIPLINES
from repro.cluster.harness import CLUSTER_TRACE_CATEGORIES
from repro.cluster.metrics import collect_cluster
from repro.elastic.controller import ElasticController
from repro.elastic.harness import ELASTIC_TRACE_CATEGORIES
from repro.elastic.migration import MigrationWindowInvariant, ShardMigration
from repro.experiments.harness import (
    METRIC_TRACE_CATEGORIES,
    RunResult,
    collect,
    run_scenario,
)
from repro.faults.injector import FaultInjector
from repro.faults.monitor import (
    InvariantMonitor,
    InvariantViolation,
    kind_counts,
)
from repro.faults.scenarios import build
from repro.parallel import RunSpec, outcome_from_result
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.elastic import ElasticScenario
from repro.workload.scenarios import Scenario, build_scenario


def test_run_scenario_produces_full_result():
    result = run_scenario(Scenario(n_objects=3, horizon=5.0, seed=2))
    assert result.admitted == 3
    assert result.response.count > 50
    assert result.response.mean > 0
    # Distance is lateness beyond the provisioned propagation allowance:
    # exactly zero on a loss-free run.
    assert result.avg_max_distance == 0.0
    assert 0.9 <= result.delivery_rate <= 1.0
    assert result.starved_writes <= 2
    lossy = run_scenario(Scenario(n_objects=3, horizon=5.0, seed=2,
                                  loss_probability=0.1))
    assert lossy.avg_max_distance > 0


#: One scenario per topology for a discipline: a pair, and two shards on
#: four hosts (multi_backup keeping two backups per group).
TOPOLOGIES = {
    "pair": lambda name: Scenario(replication=name, horizon=4.0),
    "sharded": lambda name: ClusterScenario(
        n_shards=2, n_hosts=4, n_objects=8, horizon=4.0, replication=name,
        backups_per_group=2 if name == "multi_backup" else 1),
}


@pytest.mark.parametrize("topology, monitor, name", [
    pytest.param(topology, monitor, name, id="-".join(
        ([] if topology == "pair" else [topology]) + [str(monitor), name]))
    for topology in TOPOLOGIES for monitor in (False, True)
    for name in sorted(DISCIPLINES)])
def test_every_discipline_runs_through_the_one_pipeline(topology, monitor,
                                                         name):
    scenario = TOPOLOGIES[topology](name)
    result = run_scenario(scenario, monitor=monitor)
    members = [member for group in result.service.groups
               for member in group.members]
    assert members
    assert {type(member) for member in members} == {DISCIPLINES[name]}
    assert result.response.count > 0
    if monitor:
        assert result.violations == [] and result.degraded == []
    spec = RunSpec(scenario=scenario, monitor=monitor, key=(name,))
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_several_backups_per_group_need_the_multi_backup_discipline():
    with pytest.raises(ValueError, match="multi_backup"):
        build_cluster(ClusterScenario(n_shards=2, n_hosts=4,
                                      backups_per_group=2))


def test_unknown_discipline_lists_the_known_ones():
    with pytest.raises(ValueError) as raised:
        build_scenario(Scenario(replication="quorum"))
    assert ", ".join(sorted(DISCIPLINES)) in str(raised.value)


def test_trace_is_restricted_by_default():
    result = run_scenario(Scenario(n_objects=2, horizon=3.0))
    # Registration-time records land before the restriction is applied;
    # everything recorded during the run must be on the allow-list.  The
    # high-volume scheduler/network categories must be absent from the run.
    run_categories = {record.category for record in result.service.trace
                      if record.time > 0.0}
    assert run_categories <= set(METRIC_TRACE_CATEGORIES)
    assert not result.service.trace.select("job_finish")


def test_full_trace_keeps_scheduler_events():
    result = run_scenario(Scenario(n_objects=2, horizon=3.0),
                          full_trace=True)
    assert result.service.trace.select("job_finish")


def test_warmup_excludes_early_samples():
    scenario = Scenario(n_objects=2, horizon=5.0)
    full = run_scenario(scenario, warmup=0.0)
    trimmed = run_scenario(scenario, warmup=4.0)
    assert trimmed.response.count < full.response.count


def test_loss_reduces_delivery_rate():
    clean = run_scenario(Scenario(n_objects=3, horizon=6.0))
    lossy = run_scenario(Scenario(n_objects=3, horizon=6.0,
                                  loss_probability=0.2))
    assert lossy.delivery_rate < clean.delivery_rate


def test_determinism_same_seed():
    a = run_scenario(Scenario(n_objects=3, horizon=4.0, seed=9,
                              loss_probability=0.05))
    b = run_scenario(Scenario(n_objects=3, horizon=4.0, seed=9,
                              loss_probability=0.05))
    assert a.response.mean == b.response.mean
    assert a.avg_max_distance == b.avg_max_distance
    assert a.avg_inconsistency == b.avg_inconsistency


def hand_stepped(scenario, schedule):
    """The pipeline called one public stage at a time, the way
    ``benchmarks/e2e/workloads.py`` drives it to time each stage."""
    if isinstance(scenario, Scenario):
        deployment = build_scenario(scenario)
        deployment.trace.enable_only(*METRIC_TRACE_CATEGORIES)
    else:
        deployment = build_cluster(scenario)
        deployment.trace.enable_only(*(
            ELASTIC_TRACE_CATEGORIES if isinstance(scenario, ElasticScenario)
            else CLUSTER_TRACE_CATEGORIES))
    deployment.start()
    FaultInjector(deployment, schedule).arm()
    monitors = [InvariantMonitor(deployment)]
    if isinstance(scenario, ElasticScenario):
        monitors.append(MigrationWindowInvariant(deployment))
    for monitor in monitors:
        monitor.attach()
    if isinstance(scenario, ElasticScenario):
        ElasticController(deployment, scenario,
                          on_group_added=monitors[0].add_group).start()
    deployment.run(scenario.horizon)
    if isinstance(scenario, Scenario):
        metrics = collect(scenario, deployment, 2.0)
    else:
        metrics = collect_cluster(deployment, scenario.horizon, 2.0).cluster
    return (deployment.trace.digest(), metrics,
            [len(monitor.violations) for monitor in monitors])


@pytest.mark.parametrize("name", ["primary_crash_burst_loss",
                                  "cluster_group_outage", "flash_crowd"])
def test_hand_stepped_pipeline_equals_run_scenario(name):
    # One pair, a cluster and an elastic flash crowd: the stages
    # run_scenario strings together are public, and calling them one at a
    # time must give the very same run.
    # (A schedule is built per run: a burst's loss model carries state.)
    scenario = dataclasses.replace(build(name, seed=1).workload, horizon=10.0)
    result = run_scenario(scenario, monitor=True,
                          fault_schedule=build(name, seed=1).schedule)
    violations = [len(monitor.violations) for monitor in result.monitors]
    assert sum(violations) == len(result.violations)
    assert hand_stepped(scenario, build(name, seed=1).schedule) == (
        result.service.trace.digest(), result.metrics, violations)
    assert (result.controller is not None) == (name == "flash_crowd")


@pytest.mark.parametrize("name", ["primary_crash_burst_loss",
                                  "cluster_group_outage", "flash_crowd"])
def test_findings_of_every_monitor_reach_the_result_and_the_outcome(
        name, monkeypatch):
    # Skipping the reconfiguration barrier gives the elastic run's second
    # monitor something to find; the other two topologies never migrate.
    monkeypatch.setattr(ShardMigration, "_poll_barrier",
                        ShardMigration._commit)
    chaos = build(name, seed=1)
    result = run_scenario(dataclasses.replace(chaos.workload, horizon=10.0),
                          monitor=True, fault_schedule=chaos.schedule)
    assert [type(monitor) for monitor in result.monitors] == {
        "primary_crash_burst_loss": [InvariantMonitor],
        "cluster_group_outage": [InvariantMonitor],
        "flash_crowd": [InvariantMonitor, MigrationWindowInvariant],
    }[name]
    assert result.monitors[-1].violations  # the run is not vacuous
    for merged, attr in ((result.violations, "violations"),
                         (result.degraded, "degraded")):
        tagged = [(finding.time, rank, index, finding)
                  for rank, monitor in enumerate(result.monitors)
                  for index, finding in enumerate(getattr(monitor, attr))]
        tagged.sort(key=lambda entry: entry[:3])
        assert [id(finding) for finding in merged] == [
            id(finding) for *_order, finding in tagged]
    outcome = outcome_from_result(result)
    assert outcome.violation_counts == kind_counts(result.violations)
    assert outcome.violations == [violation.to_dict()
                                  for violation in result.violations]
    assert outcome.degraded_counts == kind_counts(result.degraded)
    assert outcome.extra == result.scenario.summary(result)
    if name == "flash_crowd":
        assert outcome.extra["migration_violations"] == len(
            result.monitors[-1].violations)


def test_merged_findings_keep_attach_order_within_an_instant():
    def finding(time, kind):
        return InvariantViolation(time, kind)

    first = SimpleNamespace(
        violations=[finding(1.0, "a"), finding(3.0, "d")], degraded=[])
    second = SimpleNamespace(
        violations=[finding(1.0, "b"), finding(2.0, "c")],
        degraded=[finding(0.5, "slow")])
    result = RunResult(scenario=None, service=None, metrics=None,
                       monitors=[first, second])
    assert [found.kind for found in result.violations] == list("abcd")
    assert [found.kind for found in result.degraded] == ["slow"]
    assert result.monitor is first
    assert RunResult(scenario=None, service=None, metrics=None).violations == []
