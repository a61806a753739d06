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
# Primary-backup distance (Figures 8-10)
# ---------------------------------------------------------------------------


def distance_timeline(service: RTPBService, object_id: int,
                      horizon: float, start: float = 0.0,
                      allowance: float = 0.0
                      ) -> List[Tuple[float, float]]:
    """Piecewise-constant primary-backup distance as (time, distance) steps.

    Distance at ``t`` is ``W_P(t - allowance) - W_B(t)``: how far the write
    frontier the backup *should already reflect* (writes older than the
    propagation ``allowance``) runs ahead of the write time of the version
    the backup holds.  With ``allowance = 0`` this is the raw lag; the
    figure-8/9/10 collectors pass the provisioned lag (update period + ℓ),
    so a loss-free run measures ≈ 0 and every lost update shows up as a
    positive step — matching the paper's "close to zero when there is no
    message loss".

    Measurement begins at the first backup apply (before that the backup
    legitimately holds nothing).  Clamped to events in ``[start, horizon]``.
    """
    # (due, happened, version): a write advances ``W_P`` to its instant
    # ``allowance`` after it happened (version None); an apply advances
    # ``W_B`` to the write time of the version applied, at once.  Events
    # due together go in the order they happened, and a write before an
    # apply that happened with it (the sort is stable).
    events: List[Tuple[float, float, Optional[float]]] = [
        (record.time + allowance, record.time, None) for record
        in service.trace.select("primary_write", object=object_id)]
    events += [
        (record.time, record.time, record["write_time"]) for record
        in service.trace.select("backup_apply", object=object_id)]
    events.sort(key=itemgetter(0, 1))
    timeline: List[Tuple[float, float]] = []
    frontier: Optional[float] = None
    w_b: Optional[float] = None
    for time, happened, version in events:
        if time > horizon:
            break
        if version is None:
            frontier = happened
        else:
            w_b = max(w_b, version) if w_b is not None else version
        if frontier is None or w_b is None:
            continue
        if time >= start:
            timeline.append((time, max(0.0, frontier - w_b)))
    return timeline


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


def _lag_episode_durations(timeline: List[Tuple[float, float]],
                           horizon: float) -> List[float]:
    """Durations of maximal intervals where the lag is positive.

    Within such an interval the backup's *lateness* (seconds behind where
    it should be) grows linearly, so the episode duration IS the maximum
    lateness reached — the natural "distance in time" between the replicas.
    """
    durations: List[float] = []
    episode_start: Optional[float] = None
    for time, distance in timeline:
        behind = distance > 1e-12
        if behind and episode_start is None:
            episode_start = time
        elif not behind and episode_start is not None:
            durations.append(time - episode_start)
            episode_start = None
    if episode_start is not None:
        durations.append(horizon - episode_start)
    return durations


def _mean_or_zero(values: Collection[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def max_distance_per_object(service: RTPBService, horizon: float,
                            start: float = 0.0) -> Dict[int, float]:
    """Per-object maximum primary-backup distance over the run.

    *Distance* here is lateness: the longest stretch of time during which
    the backup was missing some version it should already have had under
    the provisioned propagation allowance (update period + ℓ).  A loss-free
    run measures ≈ 0; each lost update opens a lateness episode lasting
    until the next successful update — the quantity the paper's Figures
    8-10 track ("close to zero when there is no message loss", growing with
    loss rate and client write rate).
    """
    result: Dict[int, float] = {}
    for spec in service.registered_specs():
        timeline = distance_timeline(
            service, spec.object_id, horizon, start,
            allowance=_propagation_allowance(service, spec))
        result[spec.object_id] = max(
            _lag_episode_durations(timeline, horizon), default=0.0)
    return result


def average_max_distance(service: RTPBService, horizon: float,
                         start: float = 0.0) -> float:
    """The paper's "average maximum primary/backup distance"."""
    return _mean_or_zero(
        max_distance_per_object(service, horizon, start).values())


# ---------------------------------------------------------------------------
# Duration of backup inconsistency (Figures 11-12)
# ---------------------------------------------------------------------------


def inconsistency_durations(service: RTPBService, horizon: float,
                            start: float = 0.0) -> List[float]:
    """Durations of all backup-inconsistency episodes, all objects.

    The backup is *inconsistent* for object *i* while it fails window
    consistency: some version written more than δ_i ago is still missing
    from it (``W_B(t) < W_P(t - δ_i)``).  One episode runs from the first
    such instant to the apply that clears it; episodes still open at the
    horizon count up to the horizon.  "If an update message is lost, the
    backup would stay inconsistent until the next update message comes"
    (Section 5.3) — these durations are exactly that.
    """
    durations: List[float] = []
    for spec in service.registered_specs():
        timeline = distance_timeline(service, spec.object_id, horizon,
                                     start, allowance=spec.window)
        durations.extend(_lag_episode_durations(timeline, horizon))
    return durations


def average_inconsistency_duration(service: RTPBService, horizon: float,
                                   start: float = 0.0) -> float:
    """Mean episode duration; 0 when the backup never left its window."""
    return _mean_or_zero(inconsistency_durations(service, horizon, start))


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
