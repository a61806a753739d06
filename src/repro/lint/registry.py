"""Rule registry: the pluggable part of the linter.

A rule is a class with a ``code`` (``PERF001``), a one-line ``summary``,
and a ``check(context)`` generator of findings.  Registering is one
decorator::

    @register
    class MyRule(Rule):
        code = "XYZ001"
        summary = "what the rule forbids"

        def check(self, ctx: FileContext) -> Iterator[Finding]:
            ...

Rules are instantiated once at import time and must be stateless across
files (``check`` may build per-file visitors freely).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Type

from repro.lint.context import FileContext
from repro.lint.finding import Finding


class Rule:
    """Base class for lint rules; subclass, fill the fields, decorate."""

    #: Stable identifier, e.g. ``PERF001``.  Used in reports — never
    #: renumber a shipped rule.
    code: str = ""
    #: One-line description shown by ``python -m repro.lint --rules``.
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        """Shorthand for ``ctx.finding(self.code, node, message)``."""
        return ctx.finding(self.code, node, message)


_RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one rule instance to the registry."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    _RULES[cls.code] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by code (deterministic report order)."""
    # Deferred so `import repro.lint.registry` from a rule module does not
    # recurse; importing the package's rules module triggers registration.
    import repro.lint.rules  # noqa: F401  (import for side effect)
    return [_RULES[code] for code in sorted(_RULES)]
