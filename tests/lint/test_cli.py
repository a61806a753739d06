"""CLI behaviour: exit codes, report formats, rule selection, walking."""

import json
import textwrap
from pathlib import Path

from repro.lint.__main__ import main

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"


def write_violation(tmp_path: Path) -> Path:
    tree = tmp_path / "src" / "repro" / "sim"
    tree.mkdir(parents=True)
    (tree / "hot.py").write_text(textwrap.dedent("""\
        def drain(trace, queue):
            while queue:
                queue.pop()
                trace.record("queue_depth", depth=len(queue))
        """), encoding="utf-8")
    return tmp_path / "src"


def test_findings_exit_nonzero_with_location(capsys):
    status = main([str(FIXTURES / "src" / "repro" / "sim"
                        / "perf001_unguarded_trace.py")])
    out = capsys.readouterr().out
    assert status == 1
    assert "perf001_unguarded_trace.py:7:8: PERF001" in out


def test_clean_tree_exits_zero(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tree = tmp_path / "src" / "repro"
    tree.mkdir(parents=True)
    (tree / "ok.py").write_text("x = 1\n", encoding="utf-8")
    assert main(["src"]) == 0
    assert "clean" in capsys.readouterr().out


def test_json_report_is_stable_and_parseable(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    src = write_violation(tmp_path)
    assert main([str(src), "--format", "json"]) == 1
    first = capsys.readouterr().out
    report = json.loads(first)
    assert report["count"] == 1
    assert report["findings"][0]["rule"] == "PERF001"
    assert report["findings"][0]["line"] == 4
    assert main([str(src), "--format", "json"]) == 1
    assert capsys.readouterr().out == first  # byte-identical reruns


def test_rules_catalogue_lists_every_rule(capsys):
    assert main(["--rules"]) == 0
    out = capsys.readouterr().out
    for code in ("PERF001", "RACE001"):
        assert code in out


def test_select_runs_only_named_rules(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    src = write_violation(tmp_path)
    assert main([str(src), "--select", "RACE001"]) == 0
    assert main([str(src), "--select", "PERF001"]) == 1


def test_unknown_select_code_is_a_usage_error(capsys):
    assert main(["--select", "NOPE99", str(FIXTURES)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(capsys):
    assert main(["definitely/not/here"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_directory_walk_skips_fixture_trees(tmp_path, monkeypatch, capsys):
    # Walking tests/lint finds nothing: the fixtures directory (full of
    # deliberate violations) is excluded unless named explicitly.
    monkeypatch.chdir(HERE.parents[1])
    assert main(["tests/lint"]) == 0
