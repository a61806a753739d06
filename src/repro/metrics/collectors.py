"""Metric collectors over finished runs.

Every :class:`~repro.metrics.summary.RunMetrics` field comes from one pass,
:func:`~repro.metrics.summary.collect_views`; this module holds what that
pass shares with the collectors of numbers ``RunMetrics`` does not carry:
sample summaries, the write/apply replay behind the distance and
inconsistency metrics (:func:`lateness_episodes`,
:func:`max_distance_per_object`), the δ^P/δ^B audits, failover timing and
the duplicate count.  All are pure functions of a finished deployment view
(a pair, one group of a cluster, or a whole cluster); they never mutate the
simulation.  Times are in the simulator's native seconds — convert with
:func:`repro.units.to_ms` for paper-style tables.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from operator import attrgetter
from typing import (Any, Deque, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.consistency.checker import ExternalConsistencyChecker, Violation
from repro.consistency.timestamps import LateIntervals, UncoveredWrites
from repro.core.service import RTPBService
from repro.core.spec import ObjectSpec
from repro.errors import ReplicationError

#: Trace categories the collectors consume: a pair run's trace allow-list.
METRIC_TRACE_CATEGORIES = (
    "client_response",
    "primary_write",
    "backup_apply",
    "backup_apply_stale",
    "update_sent",
    "retx_request",
    "registration",
    "server_crash",
    "server_recover",
    "failover",
    "recruited",
    "peer_declared_dead",
    "client_activated",
    "fault_injected",
    "invariant_violation",
    # Read path (repro.replicas).  Replica-free runs never emit these, so
    # enabling them leaves every historical trace digest byte-identical.
    "client_read",
    "read_served",
    "read_refused_stale",
    "read_rejected",
    "read_fallback",
    "read_unserved",
    "replica_subscribe",
    "replica_sync",
    # Fast path / degraded states.  Paper-faithful runs never emit these,
    # so enabling them leaves historical trace digests byte-identical.
    "fastpath_commit",
    "fastpath_drain",
    "client_response_degraded",
    "replication_degraded",
)


@dataclass(frozen=True, eq=False)
class SummaryStats:
    """Summary of a sample: centre, shoulder, and tail percentiles."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float
    p99: float
    p999: float

    @staticmethod
    def empty() -> "SummaryStats":
        return SummaryStats(0, math.nan, math.nan, math.nan, math.nan,
                            math.nan, math.nan)

    def _key(self) -> Tuple[object, ...]:
        # Empty samples are NaN-filled; two of them must still compare
        # equal (sweep outcomes carrying stats are compared across
        # serial/parallel executions), so NaN maps to a sentinel.
        return tuple(
            None if isinstance(value, float) and math.isnan(value) else value
            for value in (self.count, self.mean, self.p50, self.p95,
                          self.maximum, self.p99, self.p999))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SummaryStats):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def summarize(ordered: List[float]) -> SummaryStats:
    """Summary statistics of ``ordered`` (NaNs when empty), sorting the list
    itself: pass a copy to keep the original order."""
    if not ordered:
        return SummaryStats.empty()
    ordered.sort()
    return SummaryStats(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=percentile(ordered, 0.50),
        p95=percentile(ordered, 0.95),
        maximum=ordered[-1],
        p99=percentile(ordered, 0.99),
        p999=percentile(ordered, 0.999),
    )


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """The nearest-rank ``fraction`` percentile of a sorted, non-empty
    sample: the value at rank ``ceil(fraction * n)``."""
    index = min(len(ordered) - 1, int(math.ceil(fraction * len(ordered))) - 1)
    return ordered[max(0, index)]


# ---------------------------------------------------------------------------
# Primary-backup distance (Figures 8-10), backup inconsistency (Figures 11-12)
# ---------------------------------------------------------------------------


class LatenessReplay:
    """One object's lateness episodes at each of several allowances, from
    its writes and applies fed to :meth:`step` in the order they happened.

    From the backup's first apply on (before it the backup legitimately
    holds nothing), each write and apply may move the deadline ``oldest
    uncovered write + allowance`` that :class:`LateIntervals` times: the
    backup is late while ``W_B(t) < W_P(t - allowance)``.  A step that
    leaves the oldest uncovered write where it was only splits a segment
    that ``LateIntervals`` would join again, so it is not passed on.
    """

    __slots__ = ("uncovered", "oldest", "lates")

    def __init__(self, allowances: Iterable[float], start: float,
                 horizon: float) -> None:
        self.uncovered = UncoveredWrites()
        #: The oldest uncovered write last passed on; None before the
        #: first apply.
        self.oldest: Optional[float] = None
        self.lates = {allowance: LateIntervals(start, horizon)
                      for allowance in allowances}

    def step(self, time: float, version: Optional[float]) -> None:
        """A write at ``time`` (``version`` None), or an apply at ``time``
        of the version written at ``version``."""
        uncovered = self.uncovered
        if version is None:
            uncovered.append(time)
            if self.oldest is None:
                return
        else:
            uncovered.cover(version)
        oldest = uncovered.oldest
        if oldest != self.oldest:
            self.oldest = oldest
            for allowance, late in self.lates.items():
                late.step(time, oldest + allowance)

    def episodes(self, allowance: float) -> List[Tuple[float, float]]:
        """The maximal late intervals at ``allowance``, closed at the
        horizon (closing twice adds nothing)."""
        return self.lates[allowance].close()


def replay_lateness(writes: Sequence[Any], applies: Sequence[Any],
                    allowances: Mapping[Any, Sequence[float]], start: float,
                    horizon: float
                    ) -> Tuple[Dict[Any, LatenessReplay], Counter]:
    """Every object's :class:`LatenessReplay` at its ``allowances``, fed
    its ``primary_write`` and ``backup_apply`` records up to ``horizon``,
    and every object's backup applies counted (the horizon aside).

    The two categories are merged in one pass, writes first at one
    instant; a record older than its predecessor in its category (a trace
    ingested out of order) makes the pass start again over each category
    sorted by time.
    """
    replayed = _replay(writes, applies, allowances, start, horizon)
    if replayed is None:
        by_time = attrgetter("time")
        replayed = _replay(sorted(writes, key=by_time),
                           sorted(applies, key=by_time), allowances, start,
                           horizon)
    return replayed


def _replay(writes_in: Iterable[Any], applies_in: Iterable[Any],
            allowances: Mapping[Any, Sequence[float]], start: float,
            horizon: float
            ) -> Optional[Tuple[Dict[Any, LatenessReplay], Counter]]:
    """:func:`replay_lateness`'s pass; None when a record steps back in
    time, which merging two time-ordered categories never does."""
    replays = {object_id: LatenessReplay(each, start, horizon)
               for object_id, each in allowances.items()}
    applied: Counter = Counter()
    writes, applies = iter(writes_in), iter(applies_in)
    write, apply = next(writes, None), next(applies, None)
    now = -math.inf
    while write is not None or apply is not None:
        if apply is None or (write is not None and write.time <= apply.time):
            record, version, write = write, None, next(writes, None)
        else:
            record, version = apply, apply["write_time"]
            apply = next(applies, None)
        time = record.time
        if time < now:
            return None
        now = time
        object_id = record.get("object")
        if version is not None:
            applied[object_id] += 1
        if time <= horizon:
            replay = replays.get(object_id)
            if replay is not None:
                replay.step(time, version)
    return replays, applied


def longest(episodes: Iterable[Tuple[float, float]]) -> float:
    """The longest episode's length; 0 when there are none."""
    return max((until - begin for begin, until in episodes), default=0.0)


def lateness_episodes(service: RTPBService, object_id: int, horizon: float,
                      start: float = 0.0, allowance: float = 0.0
                      ) -> List[Tuple[float, float]]:
    """Maximal intervals of ``[start, horizon]`` on which the backup lacked
    a version of ``object_id`` written over ``allowance`` earlier
    (``W_B(t) < W_P(t - allowance)``).  Lateness grows linearly within an
    episode, so its length IS the most the backup fell behind."""
    trace = service.trace
    replays, _ = replay_lateness(
        trace.select("primary_write", object=object_id),
        trace.select("backup_apply", object=object_id),
        {object_id: (allowance,)}, start, horizon)
    return replays[object_id].episodes(allowance)


def propagation_allowance(service: RTPBService, spec: ObjectSpec) -> float:
    """The provisioned primary→backup lag: update period + delay bound ℓ.

    Falls back to the spec's configured update period when the view has no
    live primary (a whole cluster, or a group whose hosts all died) — the
    distance episodes already on the trace still deserve an allowance.
    """
    try:
        primary = service.current_primary()
        period = primary.store.get(spec.object_id).update_period
    except ReplicationError:
        period = None
    if period is None:
        period = service.config.update_period(spec)
    return period + service.config.ell


def max_distance_per_object(service: RTPBService, horizon: float,
                            start: float = 0.0) -> Dict[int, float]:
    """Per-object maximum primary-backup distance: the longest lateness
    episode at the provisioned allowance (update period + ℓ).  Each lost
    update opens one, lasting until the next update gets through — so
    Figures 8-10 are "close to zero when there is no message loss" and grow
    with loss rate and client write rate.  Their mean is
    :attr:`RunMetrics.avg_max_distance <repro.metrics.summary.RunMetrics>`.
    """
    allowances = {spec.object_id: propagation_allowance(service, spec)
                  for spec in service.registered_specs()}
    trace = service.trace
    replays, _ = replay_lateness(
        trace.select("primary_write"), trace.select("backup_apply"),
        {object_id: (allowance,) for object_id, allowance
         in allowances.items()}, start, horizon)
    return {object_id: longest(replays[object_id].episodes(allowance))
            for object_id, allowance in allowances.items()}


# ---------------------------------------------------------------------------
# Consistency audits
# ---------------------------------------------------------------------------


def primary_external_violations(service: RTPBService, start: float,
                                end: float) -> Dict[int, List[Violation]]:
    """Per-object δ^P violations at the primary (empty dict values = clean)."""
    return {record.spec.object_id: ExternalConsistencyChecker(
                record.spec.delta_primary).check(record.history, start, end)
            for record in service.current_primary().store}


def backup_external_violations(service: RTPBService, start: float,
                               end: float) -> Dict[int, List[Violation]]:
    """Per-object δ^B violations at the backup."""
    backup = service.current_backup()
    return {record.spec.object_id: ExternalConsistencyChecker(
                record.spec.delta_backup).check(record.history, start, end)
            for record in (backup.store if backup is not None else ())}


# ---------------------------------------------------------------------------
# Failure / recovery
# ---------------------------------------------------------------------------


def _server_group(server_name: Optional[str]) -> str:
    """The replication group a traced server identity belongs to.

    Members of a cluster group are named ``<group service name>@<host>``
    (``rtpb/g00@host5``); the servers of a single-group service carry bare
    host names and all belong to the one unnamed group ``""``.
    """
    group, at, _host = (server_name or "").partition("@")
    return group if at else ""


def failover_latencies(service: RTPBService) -> List[float]:
    """Crash-to-takeover latency for *each* primary crash, in crash order.

    Each primary crash is paired with the next failover *of its own group*
    at or after it (a failover consumed by one crash is not reused for a
    later one), so two groups of a cluster failing over at once never
    trade takeovers.  A group view sharing a cluster-wide trace counts only
    its own crashes; the cluster view counts every group's.  A crash the
    service never recovered from contributes nothing, so under repeated
    chaos-style crashes the list length is the number of *completed*
    failovers, not ``len(crashes)``.
    """
    takeovers: Dict[str, Deque[float]] = {}
    for failover in service.trace.select("failover"):
        takeovers.setdefault(_server_group(failover.get("new_primary")),
                             deque()).append(failover.time)
    own = service.service_name
    latencies: List[float] = []
    for crash in service.trace.select("server_crash", role="primary"):
        group = _server_group(crash.get("server"))
        if group and group != own and not group.startswith(own + "/"):
            continue  # another group's crash on a shared trace
        pending = takeovers.get(group)
        while pending and pending[0] < crash.time:
            pending.popleft()
        if pending:
            latencies.append(pending.popleft() - crash.time)
    return latencies


def failover_latency(service: RTPBService) -> Optional[float]:
    """Latency of the *first* completed failover, or None if none happened."""
    latencies = failover_latencies(service)
    return latencies[0] if latencies else None


def duplicate_deliveries(service: RTPBService) -> int:
    """Lower bound on network-duplicated update deliveries.

    Computed as ``max(0, arrivals - sent)``, arrivals being backup applies
    plus stale-rejected copies: every arrival beyond the send count must be
    a duplicate.  It is a lower bound because when loss and duplication
    occur together, each lost original cancels one duplicated copy in the
    arithmetic.  The ratio of the two is
    :attr:`RunMetrics.delivery_rate <repro.metrics.summary.RunMetrics>`.
    """
    trace = service.trace
    return max(0, len(trace.select("backup_apply"))
               + len(trace.select("backup_apply_stale"))
               - len(trace.select("update_sent")))
