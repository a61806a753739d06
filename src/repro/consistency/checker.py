"""Trace checkers: verify consistency guarantees over whole runs.

The theory modules answer "does this parameter choice guarantee
consistency?"; the checkers answer the complementary question "did this
*run* actually stay consistent?" — which is how the reproduction validates
the necessary-and-sufficient theorems empirically (conditions hold ⇒ checker
finds nothing; conditions violated ⇒ adversarial phasing makes the checker
find something).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.consistency.timestamps import VersionHistory
from repro.errors import InvalidTaskError


@dataclass(frozen=True)
class Violation:
    """One maximal interval on which a consistency bound was exceeded."""

    object_ids: Tuple[int, ...]
    start: float
    end: float
    bound: float
    #: Worst excess over the bound within the interval.
    worst: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class ExternalConsistencyChecker:
    """Checks ``t - T_i(t) ≤ δ_i`` over an observation window."""

    def __init__(self, delta: float) -> None:
        if delta < 0:
            raise InvalidTaskError(f"delta must be >= 0, got {delta}")
        self.delta = delta

    def check(self, history: VersionHistory, start: float,
              end: float) -> List[Violation]:
        """All maximal violation intervals of ``history`` on ``[start, end]``."""
        violations = []
        for low, high in history.violation_intervals(self.delta, start, end):
            # Peak staleness, just before the end, less the bound.
            anchor = history.timestamp_at(low)
            violations.append(Violation(
                (history.object_id,), low, high, self.delta,
                worst=(high - low if anchor is None
                       else high - anchor - self.delta)))
        return violations

    def holds(self, history: VersionHistory, start: float, end: float) -> bool:
        return not self.check(history, start, end)


class InterObjectConsistencyChecker:
    """Checks ``|T_i(t) - T_j(t)| ≤ δ_ij`` over an observation window.

    ``T_i(t)`` is a step function jumping at each update finish, so
    ``|T_i(t) - T_j(t)|`` is piecewise constant between the merged update
    instants; sweeping those instants is exact.
    """

    def __init__(self, delta_ij: float) -> None:
        if delta_ij < 0:
            raise InvalidTaskError(f"delta_ij must be >= 0, got {delta_ij}")
        self.delta_ij = delta_ij

    def max_divergence(self, history_i: VersionHistory,
                       history_j: VersionHistory,
                       start: float, end: float) -> float:
        """Maximum of ``|T_i(t) - T_j(t)|`` over ``[start, end]``.

        Instants before either object's first update are skipped (the pair
        is unconstrained until both exist), matching how the service only
        enforces the bound once both objects are registered and written.
        """
        worst = 0.0
        for time, t_i, t_j in self._sweep(history_i, history_j, start, end):
            worst = max(worst, abs(t_i - t_j))
        return worst

    def check(self, history_i: VersionHistory, history_j: VersionHistory,
              start: float, end: float) -> List[Violation]:
        """Maximal intervals on which the divergence exceeds ``δ_ij``."""
        violations: List[Violation] = []
        open_start: Optional[float] = None
        open_worst = 0.0
        points = list(self._sweep(history_i, history_j, start, end))
        for index, (time, t_i, t_j) in enumerate(points):
            divergence = abs(t_i - t_j)
            violated = divergence > self.delta_ij + 1e-12
            if violated and open_start is None:
                open_start = time
                open_worst = divergence - self.delta_ij
            elif violated:
                open_worst = max(open_worst, divergence - self.delta_ij)
            elif open_start is not None:
                violations.append(Violation(
                    object_ids=(history_i.object_id, history_j.object_id),
                    start=open_start, end=time,
                    bound=self.delta_ij, worst=open_worst))
                open_start = None
                open_worst = 0.0
        if open_start is not None:
            violations.append(Violation(
                object_ids=(history_i.object_id, history_j.object_id),
                start=open_start, end=end,
                bound=self.delta_ij, worst=open_worst))
        return violations

    def holds(self, history_i: VersionHistory, history_j: VersionHistory,
              start: float, end: float) -> bool:
        return not self.check(history_i, history_j, start, end)

    @staticmethod
    def _sweep(history_i: VersionHistory, history_j: VersionHistory,
               start: float, end: float):
        """Yield ``(t, T_i(t), T_j(t))`` at every step-change instant."""
        instants = sorted({start, end,
                           *history_i.times_between(start, end),
                           *history_j.times_between(start, end)})
        for time in instants:
            t_i = history_i.timestamp_at(time)
            t_j = history_j.timestamp_at(time)
            if t_i is None or t_j is None:
                continue
            yield time, t_i, t_j
