"""Version histories: the ``T_i(t)`` timeline.

The paper defines ``T_i^P(t)`` / ``T_i^B(t)`` as "the finish time of the last
update of object *i* before or on time instant *t*" at the primary and backup.
A :class:`VersionHistory` keeps that timeline as three flat columns (finish
instant, seq, source time; never the payload — the store record holds the
current value) and answers the queries the consistency models are phrased
in: ``T(t)``, staleness ``t - T(t)``, and the intervals on which a bound
``δ`` was violated.  Window queries bisect to the window's updates.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple


class Version(NamedTuple):
    """One applied update, built on demand from the history's columns."""

    #: Finish time of the update at this server (the paper's ``I_k``).
    apply_time: float
    #: Monotonic sequence number assigned by the writer.
    seq: int
    #: Timestamp of the *source* data (e.g. when the client sampled the
    #: environment).  Used for primary-backup distance.
    source_time: float


class VersionHistory:
    """Append-only record of update applications for one object."""

    __slots__ = ("object_id", "_times", "_seqs", "_sources")

    def __init__(self, object_id: int) -> None:
        self.object_id = object_id
        self._times = array("d")
        self._seqs = array("q")
        self._sources = array("d")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, apply_time: float, seq: int, source_time: float) -> None:
        """Record an update finishing at ``apply_time``.

        Times must be non-decreasing (a server applies updates in real order).
        """
        if self._times and apply_time < self._times[-1] - 1e-12:
            raise ValueError(
                f"object {self.object_id}: update at {apply_time} precedes "
                f"last recorded {self._times[-1]}")
        self._times.append(apply_time)
        self._seqs.append(seq)
        self._sources.append(source_time)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> Sequence[float]:
        """All update-finish instants, ascending."""
        return tuple(self._times)

    @property
    def seqs(self) -> Sequence[int]:
        """Every applied update's sequence number, in apply order."""
        return tuple(self._seqs)

    def times_between(self, start: float, end: float) -> Sequence[float]:
        """Update-finish instants in ``[start, end]``, ascending."""
        return self._times[bisect.bisect_left(self._times, start):
                           bisect.bisect_right(self._times, end)]

    @property
    def latest(self) -> Optional[Version]:
        return self.version_at(float("inf"))

    def version_at(self, t: float) -> Optional[Version]:
        """The version current at instant ``t`` (None before the first)."""
        index = bisect.bisect_right(self._times, t) - 1
        if index < 0:
            return None
        return Version(self._times[index], self._seqs[index],
                       self._sources[index])

    def timestamp_at(self, t: float) -> Optional[float]:
        """``T(t)`` — finish time of the last update at or before ``t``."""
        index = bisect.bisect_right(self._times, t) - 1
        return None if index < 0 else self._times[index]

    def staleness_at(self, t: float) -> Optional[float]:
        """``t - T(t)``; None before the first update."""
        timestamp = self.timestamp_at(t)
        return None if timestamp is None else t - timestamp

    def _gaps(self, start: float, end: float) -> Iterator[Tuple[float, float]]:
        """``(T(t), next finish or end)`` for each step of ``[start, end]``;
        the first ``T`` is ``start`` itself before the first update."""
        low = bisect.bisect_right(self._times, start)
        anchors = [self._times[low - 1] if low else start,
                   *self._times[low:bisect.bisect_right(self._times, end)]]
        return zip(anchors, [*anchors[1:], end])

    def max_staleness(self, start: float, end: float) -> float:
        """Maximum of ``t - T(t)`` over ``[start, end]``.

        Staleness grows linearly between updates and resets at each one, so
        the maximum is attained just before an update or at ``end``.
        Before the first update staleness is measured from ``start`` (the
        object is taken to be fresh when observation begins).
        """
        if end < start:
            raise ValueError(f"empty interval [{start}, {end}]")
        return max(next_time - anchor
                   for anchor, next_time in self._gaps(start, end))

    def violation_intervals(self, delta: float, start: float,
                            end: float) -> List[Tuple[float, float]]:
        """Sub-intervals of ``[start, end]`` where staleness exceeds ``delta``.

        These are exactly the tails of inter-update gaps longer than
        ``delta``: if updates finish at ``a`` then ``b`` with
        ``b - a > delta``, the object is inconsistent on ``(a + delta, b)``,
        clipped to begin no earlier than ``start``.
        """
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        return [(max(anchor + delta, start), next_time)
                for anchor, next_time in self._gaps(start, end)
                if next_time - anchor > delta]

    def satisfies(self, delta: float, start: float, end: float) -> bool:
        """True when ``t - T(t) ≤ delta`` holds throughout ``[start, end]``."""
        return self.max_staleness(start, end) <= delta + 1e-12
