"""The cluster chaos scenario and the cluster-aware fault actions."""

from repro.faults.monitor import SPLIT_BRAIN
from repro.faults.report import run_chaos
from repro.faults.schedule import FaultSchedule
from repro.faults.scenarios import SCENARIOS, build
from repro.workload.cluster import ClusterScenario


def test_catalogue_contains_the_cluster_scenario():
    assert "cluster_group_outage" in SCENARIOS
    chaos = build("cluster_group_outage", seed=0)
    assert isinstance(chaos.workload, ClusterScenario)
    assert len(chaos.schedule) == 3
    # Group-scoped target syntax rides inside the schedule description.
    assert "g00/primary" in str(chaos.schedule.describe())


def test_cluster_group_outage_scopes_violations_to_the_split_group():
    result, report = run_chaos("cluster_group_outage", seed=0)
    # Nothing outside the declared blast radius.
    assert report["findings"]["unexpected"] == []
    monitor = result.monitor
    counts = monitor.violation_counts()
    assert counts.get(SPLIT_BRAIN, 0) >= 1
    # Per-group scoping: the split brain is attributed to the isolated
    # group, and every violation carries its owning group's name.
    per_group = monitor.per_group_counts()
    split_groups = [name for name, kinds in per_group.items()
                    if kinds.get(SPLIT_BRAIN)]
    assert split_groups == ["rtpb/g01"]
    assert all(violation.details.get("group")
               for violation in monitor.violations)
    # All three scheduled faults resolved and fired.
    assert len(result.injector.applied) == 3
    # The run document carries each group's metrics, and every finding
    # names its group there too.
    assert list(report["per_group"]) == list(per_group)
    assert all(finding["group"]
               for finding in report["findings"]["violations"])
    assert len(report["digest"]) == 64


def test_kill_host_degrades_to_crash_on_single_group_services():
    # On a deployment without a ``kill_host`` facade the action falls back
    # to crashing the targeted server — the schedule stays portable
    # between single-group and cluster runs.
    from repro.core.service import PRIMARY_ADDRESS
    from repro.experiments.harness import run_scenario
    from repro.workload.scenarios import Scenario

    scenario = Scenario(n_objects=2, horizon=8.0, seed=0, n_spares=0)
    schedule = FaultSchedule().kill_host(3.0, PRIMARY_ADDRESS)
    result = run_scenario(scenario, fault_schedule=schedule, monitor=True)
    assert list(result.injector.applied)
    assert result.service.trace.select("failover")
