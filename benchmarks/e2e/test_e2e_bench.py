"""Shape tests for the e2e benchmark.  Not part of the tier-1 suite; run with

    PYTHONPATH=src python -m pytest benchmarks/e2e

They drive ``run.py --quick`` (sub-second workloads, one repeat, traced run
included) and check the report against ``BENCHMARK.json`` — names, units,
limits, the self-time accounting identity, and run-to-run determinism of
everything a virtual clock decides.  No digest is pinned here: a later
model-changing PR may not edit this directory.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Units of numbers read off a wall clock; everything else must repeat.
WALL_UNITS = {"s", "1/s", "MB"}


def run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *arguments],
                          capture_output=True, text=True, cwd=ROOT)


@pytest.fixture(scope="module")
def quick_reports(tmp_path_factory):
    """Two complete ``--quick`` runs: (stdout of the first, doc 1, doc 2)."""
    directory = tmp_path_factory.mktemp("e2e")
    outputs, documents = [], []
    for index in (1, 2):
        path = directory / f"report{index}.json"
        finished = run("--quick", "--output", str(path))
        assert finished.returncode == 0, finished.stderr
        outputs.append(finished.stdout)
        documents.append(json.loads(path.read_text()))
    return outputs[0], documents[0], documents[1]


def test_spec_names_and_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(metric["name"] == "setup_s" and metric["unit"] == "s"
               and metric["better"] == "lower"
               for metric in SPEC["end_to_end"])
    assert all(0 <= metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])


def test_every_metric_is_printed_with_its_unit(quick_reports):
    stdout, _first, _second = quick_reports
    printed = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in WORKLOADS:
            printed.setdefault(parts[1], set()).add((parts[0], parts[3]))
    for metric in SPEC["end_to_end"]:
        assert printed[metric["name"]] == {
            (workload, metric["unit"]) for workload in WORKLOADS}
    for metric in SPEC["per_layer"]:
        rows = printed.get(metric["name"])
        assert rows, f"{metric['name']} never printed"
        assert {unit for _workload, unit in rows} == {metric["unit"]}


def test_self_times_account_for_the_traced_wall(quick_reports):
    _stdout, first, _second = quick_reports
    for workload in WORKLOADS:
        report = first["workloads"][workload]
        wall = sum(report["traced_phases"][f"{phase}_s"] for phase in
                   ("build", "simulate", "collect", "digest"))
        attributed = sum(report["layer_self_s"].values())
        assert attributed == pytest.approx(wall, rel=0.02)
        unattributed = report["per_layer"]["trace.unattributed_frac"]
        layers = sum(seconds for layer, seconds
                     in report["layer_self_s"].items() if layer != "bench")
        assert layers + unattributed * wall == pytest.approx(wall, rel=0.02)


def test_phases_sum_to_run_wall(quick_reports):
    _stdout, first, _second = quick_reports
    for workload in WORKLOADS:
        report = first["workloads"][workload]
        phases = sum(report["per_layer"][f"phase.{phase}_s"]
                     for phase in ("simulate", "collect", "digest"))
        assert phases == pytest.approx(
            report["end_to_end"]["run_wall_s"]["value"], rel=0.01)


def test_two_runs_agree_on_everything_the_virtual_clock_decides(
        quick_reports):
    _stdout, first, second = quick_reports
    units = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    for workload in WORKLOADS:
        a, b = first["workloads"][workload], second["workloads"][workload]
        for key in ("digest", "attempted", "failed"):
            assert a[key] == b[key], (workload, key)
        for name, value in a["per_layer"].items():
            # trace.* are ratios of two walls.
            if units[name] not in WALL_UNITS and not name.startswith("trace."):
                assert b["per_layer"][name] == value, (workload, name)


def test_layers_only_appear_where_they_work(quick_reports):
    _stdout, first, _second = quick_reports
    layers = {workload: first["workloads"][workload]["per_layer"]
              for workload in WORKLOADS}
    assert layers["read_heavy"]["replicas.reads_served"] > 0
    assert layers["pair_steady"]["replicas.route_calls"] == 0
    assert layers["elastic_chaos"]["faults.injected"] == 5
    assert layers["elastic_chaos"]["model.failover_ms"] > 0
    assert layers["pair_steady"]["faults.listener_calls"] == 0
    assert layers["cluster_wide"]["cluster.placements"] > 0
    assert layers["figure_sweep"]["experiments.points"] > 0


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_contract_line(trace, key):
    finished = run("--workload", "figure_sweep", "--seed", "7", "--seconds",
                   "1", "--trace", trace, "--quick")
    assert finished.returncode == 0, finished.stderr
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()
            } == {metric["name"]: metric["unit"] for metric in SPEC[key]}


def test_compare_flags_regressions(quick_reports, tmp_path):
    _stdout, first, _second = quick_reports

    def compare(change) -> int:
        paths = []
        for name, document in (("a", first), ("b", change)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(document))
        return subprocess.run(
            [sys.executable, str(HERE / "compare.py"), *map(str, paths)],
            capture_output=True, text=True).returncode

    assert compare(first) == 0
    slower = copy.deepcopy(first)
    entry = slower["workloads"]["pair_steady"]["end_to_end"]["run_wall_s"]
    entry["value"] *= 2
    entry["samples"] = [sample * 2 for sample in entry["samples"]]
    assert compare(slower) == 1
    lossy = copy.deepcopy(first)
    lossy["workloads"]["read_heavy"]["failed"] += 1
    assert compare(lossy) == 1
    later = copy.deepcopy(first)
    later["workloads"]["cluster_wide"]["per_layer"]["model.resp_p99_ms"] *= 1.001
    assert compare(later) == 1
