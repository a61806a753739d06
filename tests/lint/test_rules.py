"""One fixture test per rule: the rule fires where the fixture says.

Each fixture under ``fixtures/`` violates exactly one rule (src-only rules
live under ``fixtures/src/repro/`` so path-based scoping engages) and also
contains a "fine" variant proving the rule does not overreach.
"""

from pathlib import Path

from repro.lint import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def hits(fixture: str):
    """``{(rule, line), ...}`` for one fixture file."""
    findings = lint_paths([FIXTURES / fixture])
    return {(finding.rule, finding.line) for finding in findings}


def test_race001_set_order_into_a_sink():
    assert hits("src/repro/race001_set_flow.py") == {
        ("RACE001", 10), ("RACE001", 18)}
    # Notably absent: the sorted(peers) loop and the sink-free
    # comprehension.


def test_perf001_unguarded_hot_tracing():
    assert hits("src/repro/sim/perf001_unguarded_trace.py") == {
        ("PERF001", 7), ("PERF001", 8), ("PERF001", 13)}
    # Notably absent: the guarded record, the trivial-field record, and
    # the record after the loop.


def test_perf001_scoped_to_the_simulation_core():
    # The same unguarded loop tracing outside repro.sim / repro.sched is
    # fine: clarity wins where no dispatch loop amplifies the cost.
    from repro.lint import lint_source
    source = (FIXTURES / "src" / "repro" / "sim"
              / "perf001_unguarded_trace.py").read_text(encoding="utf-8")
    for path in ("src/repro/core/server.py", "tests/sim/example.py"):
        assert [finding for finding in lint_source(source, path)
                if finding.rule == "PERF001"] == []


def test_src_only_rules_stay_out_of_test_code():
    # The same RACE001 violations outside a src/repro path produce
    # nothing: tests may iterate sets freely.
    from repro.lint import lint_source
    source = (FIXTURES / "src" / "repro"
              / "race001_set_flow.py").read_text(encoding="utf-8")
    assert lint_source(source, "tests/anywhere/example.py") == []
