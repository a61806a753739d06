"""Built-in rule set; importing this package registers every rule.

New rule modules must be imported here (and only here) — the registry in
:mod:`repro.lint.registry` imports this package lazily to trigger
registration without import cycles.
"""

from __future__ import annotations

from repro.lint.rules import races as _races
from repro.lint.rules import simulation as _simulation

__all__ = ["_races", "_simulation"]
