"""A lint report is a pure function of the tree it reads."""

from pathlib import Path

from repro.lint import lint_paths
from repro.metrics.jsonio import stable_dumps

FIXTURES = Path(__file__).parent / "fixtures"
WALK_FIXTURES = frozenset({"__pycache__"})


def fixture_findings():
    return lint_paths([FIXTURES], excluded_parts=WALK_FIXTURES)


def test_repeat_runs_are_byte_identical():
    first = stable_dumps([vars(finding) for finding in fixture_findings()])
    second = stable_dumps([vars(finding) for finding in fixture_findings()])
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")
