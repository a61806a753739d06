"""Declarative fault schedules: *when* each fault fires.

A :class:`FaultSchedule` is an ordered list of ``(time, FaultAction)``
pairs with a fluent builder API::

    schedule = (FaultSchedule()
                .at(4.0, LossBurst(2.0, GilbertElliottLoss(0.3, 0.3,
                                                           loss_bad=0.8)))
                .crash(6.0, "primary")
                .recover(12.0, "primary"))

Schedules compose: ``a + b`` merges two schedules, ``shifted(dt)`` slides
one in time, and :meth:`flapping` generates seeded random crash→recover
cycles from a plain :class:`random.Random` — fully deterministic given the
seed, so a chaotic run is exactly repeatable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.faults.actions import (
    ClockDrift,
    CorruptMessages,
    CrashServer,
    DelaySpike,
    DrainHost,
    DuplicateMessages,
    FaultAction,
    FlashCrowd,
    Heal,
    HealAll,
    IsolateHost,
    KillHost,
    LossBurst,
    Partition,
    PartitionAll,
    RecoverServer,
    Target,
)
from repro.net.link import LossModel


@dataclass(frozen=True)
class TimedFault:
    """One schedule entry: ``action`` fires at virtual ``time``."""

    time: float
    action: FaultAction

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:  # NaN fails both comparisons
            raise ProtocolError(
                f"fault time must be finite and >= 0: {self.time}")


class FaultSchedule:
    """An ordered, composable list of :class:`TimedFault` entries."""

    def __init__(self, entries: Optional[List[TimedFault]] = None) -> None:
        self._entries: List[TimedFault] = list(entries or [])

    # ------------------------------------------------------------------
    # Builder API
    # ------------------------------------------------------------------

    def at(self, time: float, action: FaultAction) -> "FaultSchedule":
        """Add ``action`` at ``time``; returns self for chaining."""
        self._entries.append(TimedFault(time, action))
        return self

    def crash(self, time: float, target: Target) -> "FaultSchedule":
        return self.at(time, CrashServer(target))

    def recover(self, time: float, target: Target) -> "FaultSchedule":
        return self.at(time, RecoverServer(target))

    def crash_cycle(self, time: float, outage: float,
                    target: Target) -> "FaultSchedule":
        """Crash at ``time``, recover ``outage`` seconds later."""
        if outage <= 0:
            raise ProtocolError(f"outage must be > 0: {outage}")
        return self.crash(time, target).recover(time + outage, target)

    def kill_host(self, time: float, target: Target) -> "FaultSchedule":
        """Take the whole machine hosting ``target`` down (cluster-aware)."""
        return self.at(time, KillHost(target))

    def isolate(self, time: float, duration: float,
                target: Target) -> "FaultSchedule":
        """Cut ``target``'s host off from the rest of the fabric."""
        return self.at(time, IsolateHost(duration, target))

    def partition(self, time: float, a: Target, b: Target) -> "FaultSchedule":
        return self.at(time, Partition(a, b))

    def heal(self, time: float, a: Target, b: Target) -> "FaultSchedule":
        return self.at(time, Heal(a, b))

    def partition_window(self, start: float, end: float, a: Target,
                         b: Target) -> "FaultSchedule":
        """Partition ``a``/``b`` on ``[start, end)``."""
        if end <= start:
            raise ProtocolError(
                f"partition window must have end > start: [{start}, {end})")
        return self.partition(start, a, b).heal(end, a, b)

    def partition_all(self, time: float) -> "FaultSchedule":
        return self.at(time, PartitionAll())

    def heal_all(self, time: float) -> "FaultSchedule":
        return self.at(time, HealAll())

    def loss_burst(self, time: float, duration: float,
                   model: LossModel) -> "FaultSchedule":
        return self.at(time, LossBurst(duration, model))

    def delay_spike(self, time: float, duration: float,
                    factor: float) -> "FaultSchedule":
        return self.at(time, DelaySpike(duration, factor))

    def duplicate(self, time: float, duration: float,
                  probability: float) -> "FaultSchedule":
        return self.at(time, DuplicateMessages(duration, probability))

    def corrupt(self, time: float, duration: float,
                probability: float) -> "FaultSchedule":
        return self.at(time, CorruptMessages(duration, probability))

    def clock_drift(self, time: float, target: Target, scale: float,
                    duration: Optional[float] = None) -> "FaultSchedule":
        return self.at(time, ClockDrift(target, scale, duration))

    def flash_crowd(self, time: float, duration: float,
                    factor: float) -> "FaultSchedule":
        """Multiply every client's write rate by ``factor`` for ``duration``."""
        return self.at(time, FlashCrowd(duration, factor))

    def drain_host(self, time: float, target: Target) -> "FaultSchedule":
        """Mark ``target``'s host draining (rolling decommission)."""
        return self.at(time, DrainHost(target))

    @classmethod
    def flapping(cls, seed: int, target: Target, start: float, end: float,
                 mean_uptime: float, mean_outage: float) -> "FaultSchedule":
        """Seeded random crash→recover flapping of one server.

        Uptime and outage lengths are exponential with the given means,
        drawn from ``random.Random(seed)`` — the same seed always produces
        the same schedule.  Cycles that would extend past ``end`` are
        dropped whole, so the server is always back up by ``end``.
        """
        if end <= start:
            raise ProtocolError(f"flapping window needs end > start: "
                                f"[{start}, {end})")
        rng = random.Random(seed)
        schedule = cls()
        clock = start + rng.expovariate(1.0 / mean_uptime)
        while True:
            outage = rng.expovariate(1.0 / mean_outage)
            if clock + outage >= end:
                break
            schedule.crash_cycle(clock, outage, target)
            clock += outage + rng.expovariate(1.0 / mean_uptime)
        return schedule

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    @property
    def entries(self) -> List[TimedFault]:
        """Entries in firing order (stable for equal times)."""
        return sorted(self._entries, key=lambda entry: entry.time)

    def shifted(self, offset: float) -> "FaultSchedule":
        """A copy with every fault time moved by ``offset``."""
        return FaultSchedule([TimedFault(entry.time + offset, entry.action)
                              for entry in self._entries])

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        """A new schedule containing both sets of entries."""
        return FaultSchedule(self._entries + other._entries)

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        return self.merged(other)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TimedFault]:
        return iter(self.entries)

    def describe(self) -> List[Dict[str, object]]:
        """JSON-safe timeline of the schedule (for reports and logs)."""
        return [
            {"time": entry.time, "kind": entry.action.kind,
             **entry.action.describe()}
            for entry in self.entries
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultSchedule {len(self._entries)} faults>"
