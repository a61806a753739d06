"""Determinism gates for the read path: worker counts and the sweep CLI."""

import json

from repro.__main__ import main
from repro.parallel import derive_seed, run_specs
from repro.parallel.spec import RunSpec
from repro.units import ms
from repro.workload.scenarios import Scenario


def _specs():
    return [
        RunSpec(
            scenario=Scenario(n_objects=4, horizon=3.0, n_replicas=count,
                              read_period=ms(5.0),
                              seed=derive_seed(0, "replicas", count)),
            warmup=1.0, key=("replicas", count))
        for count in (0, 2)
    ]


def test_replica_sweep_outcomes_identical_across_worker_counts():
    serial = run_specs(_specs(), jobs=1)
    parallel = run_specs(_specs(), jobs=2)
    assert [outcome.trace_digest for outcome in serial] == \
        [outcome.trace_digest for outcome in parallel]
    # Everything but wall time (host noise) must agree exactly.
    for left, right in zip(serial, parallel):
        assert left.metrics == right.metrics
        assert left.events_executed == right.events_executed
        assert left.trace_records == right.trace_records
        assert left.key == right.key


def test_cli_sweep_passes_its_own_identity_gate(tmp_path):
    output = tmp_path / "sweep.json"
    code = main([
        "replicas", "--replica-counts", "0", "1", "--seeds", "0",
        "--horizon", "2", "--warmup", "0.5", "--read-period", "0.004",
        "--jobs", "2", "--require-identical", "--output", str(output)])
    assert code == 0
    document = json.loads(output.read_text())
    assert document["identical"] is True
    assert document["jobs"] == 2
    assert [run["replicas"] for run in document["runs"]] == [0, 1]
    for run in document["runs"]:
        assert len(run["digest"]) == 64
        assert run["slo_violations"] == 0
    # The zero-replica baseline routes everything to the primary.
    assert document["runs"][0]["fallback_rate"] == 1.0
