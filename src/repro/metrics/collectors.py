"""Metric collectors over finished runs.

All collectors are pure functions of a finished
:class:`~repro.core.service.RTPBService` (its trace and object stores); they
never mutate the simulation.  ``service`` is duck-typed — any deployment
view exposing the same introspection surface works, including one *group*
of a sharded cluster; the trace-counting collectors take an optional
``objects`` filter so a group view sharing a cluster-wide trace counts only
its own shard's records.  Times in the returned values are in the
simulator's native seconds — convert with :func:`repro.units.to_ms` for
paper-style tables.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import (Collection, Deque, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.consistency.checker import ExternalConsistencyChecker, Violation
from repro.consistency.timestamps import UncoveredWrites, late_intervals
from repro.core.service import RTPBService
from repro.core.spec import ObjectSpec
from repro.errors import ReplicationError
from repro.sim.trace import Selection

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
    #: Tail percentiles (ROADMAP: tail metrics).  Defaulted so older
    #: positional construction sites keep working.
    p99: float = math.nan
    p999: float = math.nan

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


def summarize(values: Sequence[float]) -> SummaryStats:
    """Summary statistics of ``values`` (NaNs when empty)."""
    if not values:
        return SummaryStats.empty()
    ordered = sorted(values)
    return SummaryStats(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=_percentile(ordered, 0.50),
        p95=_percentile(ordered, 0.95),
        maximum=ordered[-1],
        p99=_percentile(ordered, 0.99),
        p999=_percentile(ordered, 0.999),
    )


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    if not ordered:
        return math.nan
    index = min(len(ordered) - 1, int(math.ceil(fraction * len(ordered))) - 1)
    return ordered[max(0, index)]


def _scoped(service: RTPBService, category: str,
            objects: Optional[Iterable[int]]) -> Selection:
    """``category``'s records, only those of ``objects`` when given: one
    indexed query per object, so a cluster group view reads its own records,
    not every group's.  They come grouped by object, which no count or
    sorted summary sees."""
    if objects is None:
        return service.trace.select(category)
    scoped = Selection()
    for object_id in sorted(set(objects)):
        scoped += service.trace.select(category, object=object_id)
    return scoped


# ---------------------------------------------------------------------------
# Client response time (Figures 6-7)
# ---------------------------------------------------------------------------


def response_times(service: RTPBService,
                   start: float = 0.0,
                   objects: Optional[Iterable[int]] = None) -> List[float]:
    """All client-write response times observed after ``start``.

    ``objects`` restricts the count to those object ids (a cluster group
    view filtering the shared trace); None keeps every record.
    """
    return [record["response"]
            for record in _scoped(service, "client_response", objects)
            if record["issue"] >= start]


def response_time_stats(service: RTPBService,
                        start: float = 0.0,
                        objects: Optional[Iterable[int]] = None
                        ) -> SummaryStats:
    return summarize(response_times(service, start, objects=objects))


def unanswered_writes(service: RTPBService,
                      objects: Optional[Iterable[int]] = None) -> int:
    """Writes issued whose RPC never completed (overload starvation).

    Degraded completions (``client_response_degraded`` — the eager
    baseline flushing deferred writes when the backup dies) answered their
    client too, so they count as answered even though they are excluded
    from the response-time distribution.
    """
    issued = sum(client.writes_issued for client in service.clients)
    answered = (len(_scoped(service, "client_response", objects))
                + len(_scoped(service, "client_response_degraded", objects)))
    return max(0, issued - answered)


# ---------------------------------------------------------------------------
# Commutative/stable fast path (repro.core.fastpath)
# ---------------------------------------------------------------------------


def fastpath_hit_rate(service: RTPBService, start: float = 0.0,
                      objects: Optional[Iterable[int]] = None) -> float:
    """Fraction of answered writes the fast path replied to early.

    Counts ``client_response`` records with ``path == "fast"`` against all
    path-tagged responses (the tag exists only on fast-path deployments).
    0.0 when no write carried a path tag — i.e. on every run without the
    fast path.
    """
    fast = total = 0
    for record in _scoped(service, "client_response", objects):
        if record["issue"] < start:
            continue
        path = record.get("path")
        if path is None:
            continue
        total += 1
        if path == "fast":
            fast += 1
    if total == 0:
        return 0.0
    return fast / total


def fastpath_response_split(service: RTPBService, start: float = 0.0,
                            objects: Optional[Iterable[int]] = None
                            ) -> Dict[str, SummaryStats]:
    """Response-time distributions keyed by reply path.

    ``"fast"`` — answered before the backup ack; ``"deferred"`` — the
    paper's defer-until-ack path.  Only path-tagged responses count (the
    tag exists only on fast-path deployments), so both are empty on every
    run without the fast path — the inert defaults of
    :class:`~repro.metrics.summary.RunMetrics`, whatever the topology.
    """
    split: Dict[str, List[float]] = {"fast": [], "deferred": []}
    for record in _scoped(service, "client_response", objects):
        if record["issue"] < start:
            continue
        path = record.get("path")
        if path is not None:
            split[path].append(record["response"])
    return {path: summarize(values) for path, values in split.items()}


def degraded_responses(service: RTPBService, start: float = 0.0,
                       objects: Optional[Iterable[int]] = None) -> int:
    """Writes completed degraded (flushed when the backup died unacked)."""
    return sum(
        1 for record in _scoped(service, "client_response_degraded", objects)
        if record["issue"] >= start)


# ---------------------------------------------------------------------------
# Primary-backup distance (Figures 8-10), backup inconsistency (Figures 11-12)
# ---------------------------------------------------------------------------


def _uncovered_timeline(service: RTPBService, object_id: int,
                        horizon: float) -> List[Tuple[float, float]]:
    """``(instant, oldest write the backup lacks)`` at each of the object's
    writes and applies up to ``horizon``, in the order they happened, from
    the first apply on: before it the backup legitimately holds nothing."""
    events: List[Tuple[float, Optional[float]]] = [
        (record.time, None) for record
        in service.trace.select("primary_write", object=object_id)]
    events += [(record.time, record["write_time"]) for record
               in service.trace.select("backup_apply", object=object_id)]
    events.sort(key=itemgetter(0))
    uncovered = UncoveredWrites()
    timeline: List[Tuple[float, float]] = []
    for time, version in events:
        if time > horizon:
            break
        if version is None:
            uncovered.append(time)
        else:
            uncovered.cover(version)
        if version is not None or timeline:
            timeline.append((time, uncovered.oldest))
    return timeline


def lateness_episodes(service: RTPBService, object_id: int, horizon: float,
                      start: float = 0.0, allowance: float = 0.0
                      ) -> List[Tuple[float, float]]:
    """Maximal intervals of ``[start, horizon]`` on which the backup lacked
    a version of ``object_id`` written over ``allowance`` earlier
    (``W_B(t) < W_P(t - allowance)``).  Lateness grows linearly within an
    episode, so its length IS the most the backup fell behind."""
    return _episodes(_uncovered_timeline(service, object_id, horizon),
                     allowance, start, horizon)


def _episodes(timeline: List[Tuple[float, float]], allowance: float,
              start: float, horizon: float) -> List[Tuple[float, float]]:
    return late_intervals(((instant, oldest + allowance)
                           for instant, oldest in timeline), start, horizon)


def _propagation_allowance(service: RTPBService, spec: ObjectSpec) -> float:
    """The provisioned primary→backup lag: update period + delay bound ℓ.

    Falls back to the spec's configured update period when the deployment
    has no live primary (a cluster group whose hosts all died) — the
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


def mean_or_zero(values: Collection[float]) -> float:
    """The mean of ``values``; 0 when there are none."""
    return sum(values) / len(values) if values else 0.0


def distance_and_inconsistency(service: RTPBService, horizon: float,
                               start: float = 0.0
                               ) -> Tuple[Dict[int, float], List[float]]:
    """:func:`max_distance_per_object` and :func:`inconsistency_durations`
    from one replay of each object's writes and applies."""
    distance: Dict[int, float] = {}
    inconsistency: List[float] = []
    for spec in service.registered_specs():
        timeline = _uncovered_timeline(service, spec.object_id, horizon)
        lateness, inconsistent = (
            [until - begin for begin, until
             in _episodes(timeline, allowance, start, horizon)]
            for allowance in (_propagation_allowance(service, spec),
                              spec.window))
        distance[spec.object_id] = max(lateness, default=0.0)
        inconsistency.extend(inconsistent)
    return distance, inconsistency


def max_distance_per_object(service: RTPBService, horizon: float,
                            start: float = 0.0) -> Dict[int, float]:
    """Per-object maximum primary-backup distance: the longest
    :func:`lateness_episodes` episode at the provisioned allowance (update
    period + ℓ).  Each lost update opens one, lasting until the next update
    gets through — so Figures 8-10 are "close to zero when there is no
    message loss" and grow with loss rate and client write rate."""
    return distance_and_inconsistency(service, horizon, start)[0]


def average_max_distance(service: RTPBService, horizon: float,
                         start: float = 0.0) -> float:
    """The paper's "average maximum primary/backup distance"."""
    return mean_or_zero(
        max_distance_per_object(service, horizon, start).values())


def inconsistency_durations(service: RTPBService, horizon: float,
                            start: float = 0.0) -> List[float]:
    """Durations of all backup-inconsistency episodes, all objects: the
    :func:`lateness_episodes` at allowance δ_i, while the backup fails
    window consistency ``W_B(t) < W_P(t - δ_i)``.  "If an update message is
    lost, the backup would stay inconsistent until the next update message
    comes" (Section 5.3) — these durations are exactly that."""
    return distance_and_inconsistency(service, horizon, start)[1]


def average_inconsistency_duration(service: RTPBService, horizon: float,
                                   start: float = 0.0) -> float:
    """Mean episode duration; 0 when the backup never left its window."""
    return mean_or_zero(inconsistency_durations(service, horizon, start))


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


def update_delivery_rate(service: RTPBService,
                         objects: Optional[Iterable[int]] = None) -> float:
    """Ratio of backup arrivals to transmitted updates.

    Arrivals include stale-rejected duplicates: the slack-factor-2 schedule
    deliberately re-sends unchanged snapshots, and those arriving duplicates
    are deliveries, not losses.  The ratio is *not* clamped — a value above
    1.0 means the network duplicated messages, and hiding that would mask
    the very pathology the chaos reports exist to surface (see
    :func:`duplicate_deliveries`).
    """
    sent = len(_scoped(service, "update_sent", objects))
    if sent == 0:
        return 1.0
    return _update_arrivals(service, objects) / sent


def duplicate_deliveries(service: RTPBService,
                         objects: Optional[Iterable[int]] = None) -> int:
    """Lower bound on network-duplicated update deliveries.

    Computed as ``max(0, arrivals - sent)``: every arrival beyond the send
    count must be a duplicate.  It is a lower bound because when loss and
    duplication occur together, each lost original cancels one duplicated
    copy in the arithmetic.
    """
    return max(0, _update_arrivals(service, objects)
               - len(_scoped(service, "update_sent", objects)))


def _update_arrivals(service: RTPBService,
                     objects: Optional[Iterable[int]] = None) -> int:
    return (len(_scoped(service, "backup_apply", objects))
            + len(_scoped(service, "backup_apply_stale", objects)))


# ---------------------------------------------------------------------------
# Staleness-SLO read accounting (repro.replicas)
# ---------------------------------------------------------------------------


def served_read_stats(service: RTPBService, horizon: float,
                      start: float = 0.0,
                      objects: Optional[Iterable[int]] = None
                      ) -> Tuple[float, SummaryStats]:
    """Served reads per second over ``[start, horizon]`` and the summary of
    their delivered staleness, from one pass that reads each field once.

    Both tiers count — replicas trace ``read_served``, the primary
    ``client_read`` — or fallback traffic would vanish from the distribution.
    Reads of never-written objects report infinite staleness (a routing
    artefact, not a sample age) and are left out of the summary.
    """
    served = 0
    finite: List[float] = []
    for record in (_scoped(service, "read_served", objects)
                   + _scoped(service, "client_read", objects)):
        if record["issue"] >= start:
            served += 1
            staleness = record["staleness"]
            if math.isfinite(staleness):
                finite.append(staleness)
    span = horizon - start
    return (served / span if span > 0 else 0.0, summarize(finite))


def read_slo_violations(service: RTPBService,
                        objects: Optional[Iterable[int]] = None) -> int:
    """Served *replica* reads whose staleness exceeded their bound.

    The replica's serve-time re-check makes this structurally zero; the
    collector is the offline audit backing
    :class:`~repro.faults.monitor.ReplicaStalenessInvariant` (same
    predicate, independent implementation).
    """
    return sum(
        1 for record in _scoped(service, "read_served", objects)
        if record["staleness"] > record["bound"] + 1e-12)


def primary_fallback_rate(service: RTPBService, start: float = 0.0,
                          objects: Optional[Iterable[int]] = None) -> float:
    """Fraction of issued reads the replica tier could not honour.

    Counts ``read_fallback`` records (routing found no qualified replica,
    or the routed replica refused late) against all reads that entered the
    system — replica-served plus fallbacks.  0.0 when no reads ran.
    """
    fallbacks = sum(
        1 for record in _scoped(service, "read_fallback", objects)
        if record.time >= start)
    replica_served = sum(
        1 for record in _scoped(service, "read_served", objects)
        if record["issue"] >= start)
    total = fallbacks + replica_served
    if total == 0:
        return 0.0
    return fallbacks / total
