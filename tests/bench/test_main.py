"""End-to-end tests for the ``python -m repro bench`` verb."""

import json

import pytest

from repro.__main__ import main
from repro.metrics.jsonio import stable_dumps


def write_doc(path, rate):
    document = {
        "schema": 1,
        "meta": {"rev": "t"},
        "benches": {"sim_engine": {"events_per_sec": rate, "wall_s": 1.0}},
    }
    path.write_text(stable_dumps(document) + "\n")
    return str(path)


def test_list_exits_zero(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "sim_engine" in out and "fig08_distance_vs_loss" not in out


def test_quick_run_writes_document(tmp_path):
    output = tmp_path / "BENCH_test.json"
    code = main(["bench", "--quick", "--only", "sim_engine", "--rev", "test",
                 "--output", str(output)])
    assert code == 0
    document = json.loads(output.read_text())
    assert document["meta"]["rev"] == "test"
    assert document["meta"]["quick"] is True
    assert "sim_engine" in document["benches"]
    assert document["benches"]["sim_engine"]["wall_s"] > 0


def test_compare_flags_synthetic_regression(tmp_path):
    old = write_doc(tmp_path / "old.json", rate=100_000.0)
    new = write_doc(tmp_path / "new.json", rate=40_000.0)
    assert main(["bench", "--compare", old, new]) == 1


def test_compare_passes_on_equal_documents(tmp_path):
    old = write_doc(tmp_path / "old.json", rate=100_000.0)
    new = write_doc(tmp_path / "new.json", rate=99_000.0)
    assert main(["bench", "--compare", old, new]) == 0


def test_unknown_scenario_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--only", "no_such_bench"])
    assert excinfo.value.code == 2


def test_compare_rejects_non_bench_json(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    good = write_doc(tmp_path / "good.json", rate=1.0)
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--compare", str(bogus), good])
    assert excinfo.value.code == 2


def test_jobs_lands_in_document_meta(tmp_path):
    output = tmp_path / "BENCH_jobs.json"
    code = main(["bench", "--quick", "--only", "sim_engine", "--rev", "test",
                 "--jobs", "2", "--output", str(output)])
    assert code == 0
    assert json.loads(output.read_text())["meta"]["jobs"] == 2


def test_negative_jobs_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--quick", "--only", "sim_engine", "--jobs", "-1"])
    assert excinfo.value.code == 2


def test_require_identical_gates_digest_drift(tmp_path):
    def digest_doc(path, digest):
        document = {
            "schema": 1,
            "meta": {"rev": "t"},
            "benches": {"sim_engine": {"events_per_sec": 1000.0,
                                       "digest": digest}},
        }
        path.write_text(stable_dumps(document) + "\n")
        return str(path)

    old = digest_doc(tmp_path / "old.json", "aaa")
    new = digest_doc(tmp_path / "new.json", "bbb")
    assert main(["bench", "--compare", old, new]) == 0
    assert main(["bench", "--compare", old, new, "--require-identical"]) == 1


def test_benches_filter_flows_through_cli(tmp_path):
    # sim_engine regresses, tracer_select does not; the filter decides
    # which one the exit code reflects.
    def two_bench_doc(path, sim_rate):
        document = {
            "schema": 1,
            "meta": {"rev": "t"},
            "benches": {
                "sim_engine": {"events_per_sec": sim_rate, "wall_s": 1.0},
                "tracer_select": {"events_per_sec": 1000.0, "wall_s": 1.0},
            },
        }
        path.write_text(stable_dumps(document) + "\n")
        return str(path)

    old = two_bench_doc(tmp_path / "old.json", sim_rate=100_000.0)
    new = two_bench_doc(tmp_path / "new.json", sim_rate=40_000.0)
    assert main(["bench", "--compare", old, new]) == 1
    assert main(["bench", "--compare", old, new, "--benches", "tracer_select"]) == 0
    assert main(["bench", "--compare", old, new, "--benches", "sim_engine"]) == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--compare", old, new, "--benches", "typo_bench"])
    assert excinfo.value.code == 2


def test_benches_without_compare_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--quick", "--only", "sim_engine", "--benches", "sim_engine"])
    assert excinfo.value.code == 2


def test_nonpositive_repeat_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--repeat", "0", "--only", "sim_engine"])
    assert excinfo.value.code == 2
    assert "repeat must be >= 1" in capsys.readouterr().err

