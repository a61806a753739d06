"""Each kept rule catches the mutant that kept it.

``docs/LINT.md`` seeds one mutant per rule into real library code.  For
the rules still here, neither the string-hash-seed runs nor the rest of
the suite notice that mutant, so the rule is its only check.  Each case
applies the mutant to the library source in memory and lints it under its
real path: the rule fires on the mutant and stays silent on the library as
it is.  A case that fails on ``count(old) == 1`` means the site moved:
update the mutant here and its row in ``docs/LINT.md`` together.
"""

from pathlib import Path

import pytest

from repro.lint import lint_source, select_rules

SRC = Path(__file__).resolve().parents[2] / "src"

#: rule -> (library file, original text, mutated text)
MUTANTS = {
    # A dead category's record still builds its fields once per event.
    "PERF001": ("repro/sim/engine.py",
                "                    count += 1\n"
                "                    # Empty-args",
                "                    count += 1\n"
                "                    self.trace.record(\"queue_depth\", "
                "depth=len(heap) - 1)\n"
                "                    # Empty-args"),
    # Acked writes answered in set order, not sequence order.
    "RACE001": ("repro/baselines/eager.py",
                "        completed = [key for key in self._pending_acks\n"
                "                     if key[0] == message.object_id "
                "and key[1] <= message.seq]\n"
                "        for key in sorted(completed, "
                "key=lambda item: item[1]):",
                "        completed = {key for key in self._pending_acks\n"
                "                     if key[0] == message.object_id "
                "and key[1] <= message.seq}\n"
                "        for key in completed:"),
}


@pytest.mark.parametrize("code", sorted(MUTANTS))
def test_the_rule_fires_on_its_mutant_and_not_on_the_library(code):
    relative, original, mutated = MUTANTS[code]
    source = (SRC / relative).read_text(encoding="utf-8")
    assert source.count(original) == 1
    path = f"src/{relative}"
    rules = select_rules([code])
    assert lint_source(source, path, rules) == []
    findings = lint_source(source.replace(original, mutated), path, rules)
    assert [finding.rule for finding in findings] == [code]
