"""Static checks that a run cannot replace (``python -m repro.lint``, also
the ``repro-lint`` console script).

Determinism — the same inputs give the same bytes — is checked by running
the program: CI compares the chaos matrix and the read-replica, cluster and
elastic sweeps under two string-hash seeds, and the tier-1 suite pins trace
digests.  What is left here are the rules whose bug class leaves every
output byte unchanged, so no run can see it.  ``docs/LINT.md`` lists them,
with the mutant that decided each one kept or deleted.

Public API::

    from repro.lint import Finding, lint_paths, lint_source, select_rules
"""

from __future__ import annotations

from repro.lint.context import FileContext
from repro.lint.engine import (DEFAULT_EXCLUDED_PARTS, SYNTAX_CODE,
                               iter_python_files, lint_paths, lint_source,
                               select_rules)
from repro.lint.finding import Finding
from repro.lint.registry import Rule, all_rules, register

__all__ = [
    "DEFAULT_EXCLUDED_PARTS",
    "FileContext",
    "Finding",
    "Rule",
    "SYNTAX_CODE",
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register",
    "select_rules",
]
