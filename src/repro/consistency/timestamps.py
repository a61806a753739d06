"""Version histories: the ``T_i(t)`` timeline, and the one lateness decider.

The paper defines ``T_i^P(t)`` / ``T_i^B(t)`` as "the finish time of the last
update of object *i* before or on time instant *t*" at the primary and backup.
A :class:`VersionHistory` keeps that timeline as three flat columns (finish
instant, seq, source time; never the payload — the store record holds the
current value) and answers the queries the consistency models are phrased
in: ``T(t)``, staleness ``t - T(t)``, and the intervals on which a bound
``δ`` was violated.  Window queries bisect to the window's updates.

:class:`LateIntervals` alone decides lateness: the history steps it through
``T(t) + δ``, the collectors through an :class:`UncoveredWrites`' oldest
write + allowance.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections import deque
from typing import List, NamedTuple, Optional, Sequence, Tuple


class LateIntervals:
    """Maximal sub-intervals of ``[start, end]`` where ``t`` is past due.

    :meth:`step` each ``(instant, deadline)`` change in time order, then
    :meth:`close`: a deadline holds until the next change (the last until
    ``end``) and nothing is due before the first.  An episode under way at
    ``start`` counts from ``start``; touching segments are one episode, an
    empty one is none.

    The online :class:`~repro.faults.monitor.InvariantMonitor` times the
    collectors' deadline (oldest uncovered write + ``window + grace``) and
    reports where each interval begins, with three policies of its own: it
    watches an object from its first write (the collectors from the
    backup's first apply), reports nothing while the group has no backup,
    and starts afresh at failover, recruitment, placement, migration and
    shedding.  Faulted runs so disagree: on ``primary_crash_burst_loss`` at
    seed 0 the monitor reports 8 findings, the collectors 6 episodes, four
    of them open from about 3.5 s to the 20 s horizon.
    """

    __slots__ = ("start", "end", "intervals", "_since", "_due")

    def __init__(self, start: float, end: float) -> None:
        self.start, self.end = start, end
        self.intervals: List[Tuple[float, float]] = []
        self._since = self._due = math.inf

    def step(self, instant: float, deadline: float) -> None:
        begin = max(self._since, self._due, self.start)
        until = min(instant, self.end)
        if begin < until:
            intervals = self.intervals
            if intervals and intervals[-1][1] == begin:
                intervals[-1] = (intervals[-1][0], until)
            else:
                intervals.append((begin, until))
        self._since, self._due = instant, deadline

    def close(self) -> List[Tuple[float, float]]:
        """The intervals, the last deadline held until ``end``."""
        self.step(self.end, math.inf)
        return self.intervals


class UncoveredWrites(deque[float]):
    """One object's write instants no backup apply has covered yet, oldest
    first: the backup is late once ``oldest + allowance`` has passed.  The
    collectors replay a trace through one, the online monitor feeds one."""

    def cover(self, until: float) -> None:
        """Applying the version written at ``until`` covers all up to it."""
        while self and self[0] <= until + 1e-9:  # float noise
            self.popleft()

    @property
    def oldest(self) -> float:
        """The oldest uncovered write's instant; infinity when none is."""
        return self[0] if self else math.inf


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

    def _anchors(self, start: float, end: float) -> List[float]:
        """``T(t)`` at each of its changes on ``[start, end]``: ``T(start)``
        (``start`` itself before the first update), then every finish."""
        low = bisect.bisect_right(self._times, start)
        return [self._times[low - 1] if low else start,
                *self._times[low:bisect.bisect_right(self._times, end)]]

    def max_staleness(self, start: float, end: float) -> float:
        """Maximum of ``t - T(t)`` over ``[start, end]``.

        Staleness grows linearly between updates and resets at each one, so
        the maximum is attained just before an update or at ``end``.
        Before the first update staleness is measured from ``start`` (the
        object is taken to be fresh when observation begins).
        """
        if end < start:
            raise ValueError(f"empty interval [{start}, {end}]")
        anchors = self._anchors(start, end)
        return max(following - anchor
                   for anchor, following in zip(anchors, [*anchors[1:], end]))

    def violation_intervals(self, delta: float, start: float,
                            end: float) -> List[Tuple[float, float]]:
        """Sub-intervals of ``[start, end]`` where staleness exceeds ``delta``.

        The deadline ``T(t) + delta`` changes at each update: if updates
        finish at ``a`` then ``b`` with ``b - a > delta``, the object is
        inconsistent on ``(a + delta, b)``, clipped to begin no earlier
        than ``start``.
        """
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        late = LateIntervals(start, end)
        for anchor in self._anchors(start, end):
            late.step(anchor, anchor + delta)
        return late.close()

    def satisfies(self, delta: float, start: float, end: float) -> bool:
        """True when ``t - T(t) ≤ delta`` holds throughout ``[start, end]``."""
        return self.max_staleness(start, end) <= delta + 1e-12
