"""Whole-program determinism, protocol-conformance & real-time-safety
analyzer (``python -m repro.lint``, also the ``repro-lint`` console script).

The reproduction's guarantees — byte-identical chaos reports, stable trace
digests, exact virtual-time instants for the paper's temporal-consistency
windows — rest on a determinism contract (no wall clock, no unseeded
randomness, no order-unstable iteration feeding the tracer) and on
cross-module protocol contracts (every message type sent is handled, every
published role resolvable, timestamp units never mixed).  This package
enforces both mechanically in a two-phase run: per-file rules over each
parsed module, then whole-program rules over a :class:`ProjectModel`.  See
``docs/LINT.md`` for the rule catalogue, the ``# lint: disable=RULE``
suppression syntax, and the baseline workflow.

Public API::

    from repro.lint import Finding, lint_paths, lint_source, select_rules
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.context import FileContext
from repro.lint.engine import (DEFAULT_EXCLUDED_PARTS, SYNTAX_CODE,
                               iter_python_files, lint_paths, lint_source,
                               select_rules)
from repro.lint.finding import Finding
from repro.lint.project import ModuleInfo, ProjectModel, module_name_for
from repro.lint.registry import (ProjectRule, Rule, all_rules, get_rule,
                                 known_codes, register)
from repro.lint.suppress import META_CODE, Suppressions
from repro.lint.symbols import ClassInfo, SymbolTable

__all__ = [
    "Baseline",
    "ClassInfo",
    "DEFAULT_EXCLUDED_PARTS",
    "FileContext",
    "Finding",
    "META_CODE",
    "ModuleInfo",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "SYNTAX_CODE",
    "SymbolTable",
    "Suppressions",
    "all_rules",
    "get_rule",
    "iter_python_files",
    "known_codes",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register",
    "select_rules",
]
