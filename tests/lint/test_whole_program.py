"""Phase-two project rules over the fixture mini-package, end to end.

The ``fixtures/proj`` tree is a miniature of the library's shape with
exactly one violation (and a non-violating twin) per whole-program rule;
this test asserts the *complete* finding set, so both the positive and the
negative case of every rule are pinned — anything extra or missing fails.
"""

from pathlib import Path

from repro.lint import lint_paths, lint_source
from repro.metrics.jsonio import stable_dumps

PROJ = Path(__file__).parent / "fixtures" / "proj"
WALK_FIXTURES = frozenset({"__pycache__"})


def proj_findings():
    return lint_paths([PROJ], excluded_parts=WALK_FIXTURES)


def test_fixture_project_fires_every_whole_program_rule_exactly():
    got = {(finding.path.rsplit("/", 1)[-1], finding.line, finding.rule)
           for finding in proj_findings()}
    assert got == {
        ("messages.py", 11, "PROTO001"),   # OrphanMsg: sent, never handled
        ("handler.py", 14, "PROTO002"),    # GhostMsg: handled, never sent
        ("sender.py", 17, "PROTO003"),     # role "shadow": never looked up
        ("handler.py", 21, "PROTO003"),    # role "standby": never published
        ("sender.py", 24, "PROTO004"),     # category typo "primary_wrte"
        ("races.py", 24, "RACE001"),       # set iteration into schedule()
        ("races.py", 32, "RACE001"),       # set comprehension into send()
        ("races.py", 9, "RACE002"),        # shared class-level list
        ("races.py", 38, "RACE003"),       # dataclass mutable default
        ("races.py", 42, "RACE003"),       # function mutable default
        ("timing.py", 14, "RT002"),        # milliseconds vs sim-seconds
        ("timing.py", 17, "RT002"),        # seconds vs period count
    }


def test_project_rule_findings_honour_inline_suppressions():
    source = ("def collect(seq, acc=[]):  # lint: disable=RACE003\n"
              "    acc.append(seq)\n"
              "    return acc\n")
    assert lint_source(source, "src/repro/fake.py") == []
    assert [finding.rule for finding in
            lint_source(source.replace("  # lint: disable=RACE003", ""),
                        "src/repro/fake.py")] == ["RACE003"]


def test_repeat_runs_are_byte_identical():
    first = stable_dumps([vars(finding) for finding in proj_findings()])
    second = stable_dumps([vars(finding) for finding in proj_findings()])
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


def test_single_file_runs_still_catch_module_local_project_rules():
    # lint_source builds a one-module project: cross-module absences
    # (PROTO001/002) cannot fire, but RT002/RACE/PROTO004 behave as in a
    # full run — the analyzer stays useful on a single file.
    source = ("from repro.units import to_ms\n"
              "def late(deadline, lat_ms):\n"
              "    return lat_ms > deadline\n")
    assert [finding.rule for finding in
            lint_source(source, "src/repro/fake.py")] == ["RT002"]
