"""The unit of linter output: one rule violation at one source location.

Findings are plain frozen dataclasses so they sort stably, hash, and pass
unchanged through :func:`repro.metrics.jsonio.stable_dumps` — the JSON
report is just a list of findings.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation.

    ``path`` is stored POSIX-style and relative to the lint invocation root
    so reports are stable across machines and platforms.  Ordering is
    lexicographic on ``(path, line, col, rule, message)``, which is the
    order reports are emitted in.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """Human-readable one-line form: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
