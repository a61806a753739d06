"""Chaos scenario catalogue and the ``python -m repro chaos`` verb."""

import json

import pytest

from repro.__main__ import main
from repro.faults.monitor import SPLIT_BRAIN, TEMPORAL_WINDOW
from repro.faults.report import report_dict, run_chaos
from repro.faults.scenarios import SCENARIOS, build


def test_catalogue_builds_deterministically():
    for name in SCENARIOS:
        first, second = build(name, seed=3), build(name, seed=3)
        assert first.schedule.describe() == second.schedule.describe()
        assert first.workload == second.workload


def test_unknown_scenario_name_lists_alternatives():
    with pytest.raises(KeyError, match="primary_crash_burst_loss"):
        build("nonesuch")


def test_acceptance_scenario_catches_expected_violations():
    """primary_crash_burst_loss, seed 1: the monitor must flag the window
    violations (and nothing outside the scenario's expected set)."""
    run = run_chaos("primary_crash_burst_loss", seed=1)
    counts = run.result.monitor.violation_counts()
    assert counts.get(TEMPORAL_WINDOW, 0) >= 1
    assert run.unexpected_violations() == []


def test_split_brain_scenario_flags_split_brain():
    run = run_chaos("partition_heal_rejoin", seed=1)
    counts = run.result.monitor.violation_counts()
    assert counts.get(SPLIT_BRAIN, 0) >= 1
    assert run.unexpected_violations() == []


@pytest.mark.parametrize("name", ["fastpath_backup_crash",
                                  "fastpath_primary_failover"])
def test_fastpath_chaos_keeps_every_invariant(name):
    """Acceptance: the fast path under churn provokes *zero* invariant
    violations — early replies never outrun what a failover can prove."""
    run = run_chaos(name, seed=1)
    assert run.result.monitor.violation_counts() == {}
    assert run.unexpected_violations() == []
    # The fast path actually engaged (the run is not vacuous) ...
    trace = run.result.service.trace
    assert trace.select("fastpath_commit")
    # ... and the failure transition ran the drain protocol to completion.
    phases = [record["phase"]
              for record in trace.select("fastpath_drain")]
    assert "start" in phases and "complete" in phases


@pytest.mark.parametrize("name", ["backup_flapping", "crash_plus_partition",
                                  "degraded_network"])
def test_remaining_scenarios_fire_and_stay_inside_their_expected_set(name):
    """The catalogue entries no other test runs to a verdict: their faults
    must actually fire and provoke nothing undeclared."""
    run = run_chaos(name, seed=1)
    assert run.result.injector.applied, f"{name}: no fault ever fired"
    assert run.unexpected_violations() == []


def test_report_dict_carries_fault_log_and_digest():
    run = run_chaos("crash_plus_partition", seed=2)
    report = report_dict(run)
    assert report["scenario"]["name"] == "crash_plus_partition"
    assert report["scenario"]["seed"] == 2
    assert len(report["faults"]["applied"]) == len(
        report["faults"]["scheduled"])
    assert len(report["trace_digest"]) == 64
    assert report["network"]["messages_sent"] > 0


def test_cli_reports_are_byte_identical(capsys):
    """Acceptance: two CLI runs of the same (scenario, seed) emit identical
    JSON documents."""
    argv = ["chaos", "--scenario", "primary_crash_burst_loss", "--seed", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    document = json.loads(first)
    assert document["scenario"]["seed"] == 1
    assert document["trace_digest"]


def test_cli_seed_changes_the_report(capsys):
    main(["chaos", "--scenario", "backup_flapping", "--seed", "1"])
    first = capsys.readouterr().out
    main(["chaos", "--scenario", "backup_flapping", "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second


def test_cli_list_names_every_scenario(capsys):
    assert main(["chaos", "--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_cli_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["chaos", "--scenario", "degraded_network", "--seed", "0",
                 "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    document = json.loads(path.read_text())
    assert document["scenario"]["name"] == "degraded_network"


def test_cli_rejects_missing_mode_and_bad_name(capsys):
    with pytest.raises(SystemExit):
        main(["chaos"])
    with pytest.raises(SystemExit):
        main(["chaos", "--scenario", "nonesuch"])


def test_cli_rejects_unwritable_output_path(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "report.json"
    with pytest.raises(SystemExit):
        main(["chaos", "--scenario", "degraded_network", "--output", str(path)])
    assert "cannot write --output" in capsys.readouterr().err


def test_cli_rejects_negative_jobs(capsys):
    with pytest.raises(SystemExit):
        main(["chaos", "--matrix", "--jobs", "-4"])
    assert "jobs" in capsys.readouterr().err
