"""One-call run summaries: every paper metric for a finished deployment.

:class:`RunMetrics` is the picklable record sweeps ship between processes.
:func:`collect_views` is its one producer: one pass over the run's trace,
each category's rows read once and credited to their object's group, fills
the whole deployment's metrics and — for a cluster — every group's at once.
:func:`collect_metrics` is its first half, for callers that want only the
whole deployment's.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.group import ReplicationGroup
from repro.core.service import RTPBService
from repro.metrics.collectors import (
    LatenessReplay,
    SummaryStats,
    backup_external_violations,
    failover_latency,
    longest,
    propagation_allowance,
    replay_lateness,
    summarize,
)
from repro.metrics.report import Table
from repro.units import to_ms

if TYPE_CHECKING:  # pragma: no cover - repro.cluster sits above metrics
    from repro.cluster.service import ClusterService


@dataclass(frozen=True)
class RunMetrics:
    """The picklable, service-free metrics of one finished run."""

    #: Objects that actually entered the service.
    admitted: int
    response: SummaryStats
    #: Writes whose RPC never completed within the horizon (overload).
    starved_writes: int
    #: seconds — the paper's average maximum primary/backup distance.
    avg_max_distance: float
    #: seconds — the paper's duration of backup inconsistency (mean episode).
    avg_inconsistency: float
    #: Fraction of transmitted updates applied at the backup.
    delivery_rate: float
    #: Read path (repro.replicas): zero and empty on write-only runs.
    read_throughput: float
    read_staleness: SummaryStats
    slo_violations: int
    fallback_rate: float
    #: Fast path (repro.core.fastpath): zero and empty elsewhere.
    fastpath_hit_rate: float
    fast_response: SummaryStats
    deferred_response: SummaryStats
    #: Writes completed degraded (backup died before acking; eager only).
    degraded_responses: int

    @property
    def mean_response(self) -> float:
        return self.response.mean


class MetricsView:
    """Flat read access to the fields of ``self.metrics``: the one metric
    surface of a live ``RunResult`` and of its picklable ``RunOutcome``."""

    metrics: RunMetrics

    @property
    def admitted(self) -> int:
        return self.metrics.admitted

    @property
    def response(self) -> SummaryStats:
        return self.metrics.response

    @property
    def starved_writes(self) -> int:
        return self.metrics.starved_writes

    @property
    def avg_max_distance(self) -> float:
        return self.metrics.avg_max_distance

    @property
    def avg_inconsistency(self) -> float:
        return self.metrics.avg_inconsistency

    @property
    def delivery_rate(self) -> float:
        return self.metrics.delivery_rate

    @property
    def mean_response(self) -> float:
        return self.metrics.response.mean


class _Tally:
    """One view's own share of the trace: its samples and counts."""

    __slots__ = ("responses", "fast", "deferred", "responded", "degraded",
                 "sent", "arrivals", "staleness", "served",
                 "replica_served", "fallbacks", "slo_violations")

    _SAMPLES = ("responses", "fast", "deferred", "staleness")

    def __init__(self) -> None:
        #: Response times of writes issued after warmup, all and by path.
        self.responses: List[float] = []
        self.fast: List[float] = []
        self.deferred: List[float] = []
        #: Finite staleness of reads issued after warmup, either tier.
        self.staleness: List[float] = []
        self.responded = self.degraded = self.sent = self.arrivals = 0
        self.served = self.replica_served = self.fallbacks = 0
        self.slo_violations = 0

    def absorb(self, other: "_Tally") -> None:
        """Add ``other``'s counts, and move (never copy) its samples here."""
        for name in self.__slots__:
            theirs = getattr(other, name)
            if name in self._SAMPLES:
                getattr(self, name).extend(theirs)
                theirs.clear()
            else:
                setattr(self, name, getattr(self, name) + theirs)


def _mean_or_zero(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _view_metrics(view: "ReplicationGroup | ClusterService",
                  tally: _Tally, issued: int,
                  replays: Dict[int, LatenessReplay],
                  allowances: Dict[int, float], span: float) -> RunMetrics:
    """``view``'s :class:`RunMetrics` from its tally and its objects'
    replays; sorts the tally's samples in place."""
    specs = view.registered_specs()
    distance = {spec.object_id: longest(replays[spec.object_id].episodes(
                    allowances[spec.object_id])) for spec in specs}
    inconsistency = [until - begin for spec in specs for begin, until
                     in replays[spec.object_id].episodes(spec.window)]
    paths = len(tally.fast) + len(tally.deferred)
    reads = tally.fallbacks + tally.replica_served
    return RunMetrics(
        admitted=len(specs),
        response=summarize(tally.responses),
        # Degraded completions answered their client too.
        starved_writes=max(0, issued - tally.responded - tally.degraded),
        avg_max_distance=_mean_or_zero(list(distance.values())),
        avg_inconsistency=_mean_or_zero(inconsistency),
        # Arrivals include stale-rejected duplicates and are not clamped:
        # above 1.0 the network duplicated updates.
        delivery_rate=tally.arrivals / tally.sent if tally.sent else 1.0,
        read_throughput=tally.served / span if span > 0 else 0.0,
        read_staleness=summarize(tally.staleness),
        slo_violations=tally.slo_violations,
        fallback_rate=tally.fallbacks / reads if reads else 0.0,
        fastpath_hit_rate=len(tally.fast) / paths if paths else 0.0,
        fast_response=summarize(tally.fast),
        deferred_response=summarize(tally.deferred),
        degraded_responses=tally.degraded,
    )


def collect_views(deployment: "RTPBService | ClusterService",
                  horizon: float, warmup: float = 2.0
                  ) -> Tuple[RunMetrics, Dict[str, RunMetrics]]:
    """The whole deployment's :class:`RunMetrics` and, for a cluster, each
    group's by group name in gid order (none for a pair, which is its one
    group).

    ``warmup`` seconds at the head of the run are left out of the sampled
    metrics.  Each trace category is read once; a record counts for the
    group its object belongs to at the end of the run, and for the whole
    deployment.  Writes issued count by object too — every client's and
    every snapshot a live migration wrote — so a group's starved writes
    follow its objects wherever they were written.
    """
    groups = [group for group in deployment.groups if group is not deployment]
    views: List["ReplicationGroup | ClusterService"] = [*groups, deployment]
    own = len(groups)  # the whole's tally: records of no group's object
    slot_of = {object_id: slot for slot, group in enumerate(groups)
               for object_id in group.object_ids()}
    tallies = [_Tally() for _ in views]
    trace = deployment.trace

    def tally(record: Any) -> _Tally:
        return tallies[slot_of.get(record.get("object"), own)]

    for record in trace.select("client_response"):
        share = tally(record)
        share.responded += 1
        if record["issue"] >= warmup:
            response = record["response"]
            share.responses.append(response)
            path = record.get("path")
            if path is not None:
                (share.fast if path == "fast" else share.deferred).append(
                    response)
    for record in trace.select("client_response_degraded"):
        tally(record).degraded += 1
    for record in trace.select("update_sent"):
        tally(record).sent += 1
    for record in trace.select("backup_apply_stale"):
        tally(record).arrivals += 1
    for record in trace.select("read_served"):
        share = tally(record)
        staleness = record["staleness"]
        if staleness > record["bound"] + 1e-12:
            share.slo_violations += 1
        if record["issue"] >= warmup:
            share.served += 1
            share.replica_served += 1
            if math.isfinite(staleness):
                share.staleness.append(staleness)
    for record in trace.select("client_read"):
        if record["issue"] >= warmup:
            share = tally(record)
            share.served += 1
            staleness = record["staleness"]
            if math.isfinite(staleness):
                share.staleness.append(staleness)
    for record in trace.select("read_fallback"):
        if record.time >= warmup:
            tally(record).fallbacks += 1

    # Each view's distance allowance per object; one replay decides an
    # object's episodes at all of them and at its window.
    allowances: List[Dict[int, float]] = [
        {spec.object_id: propagation_allowance(view, spec)
         for spec in view.registered_specs()} for view in views]
    replays, applied = replay_lateness(
        trace.select("primary_write"), trace.select("backup_apply"),
        {spec.object_id: [spec.window, *(each[spec.object_id]
                                         for each in allowances
                                         if spec.object_id in each)]
         for spec in deployment.registered_specs()}, warmup, horizon)
    for object_id, count in applied.items():
        tallies[slot_of.get(object_id, own)].arrivals += count

    issued: Counter = Counter()
    for client in deployment.clients:
        issued.update(client.issued)
    for group in deployment.groups:
        issued.update(group.snapshot_writes)

    span = horizon - warmup
    per_group = {
        group.name: _view_metrics(
            group, tallies[slot],
            sum(issued[object_id] for object_id in group.object_ids()),
            replays, allowances[slot], span)
        for slot, group in enumerate(groups)}
    whole = tallies[own]
    for share in tallies[:own]:
        whole.absorb(share)
    return (_view_metrics(deployment, whole, sum(issued.values()), replays,
                          allowances[own], span), per_group)


def collect_metrics(deployment: "RTPBService | ClusterService",
                    horizon: float, warmup: float = 2.0) -> RunMetrics:
    """The whole deployment's :class:`RunMetrics` (see
    :func:`collect_views`)."""
    return collect_views(deployment, horizon, warmup)[0]


@dataclass(frozen=True)
class RunSummary(RunMetrics):
    """:class:`RunMetrics` plus the two numbers only a one-pair summary
    computes, rendered as the operator's table."""

    #: δ^B violations observed at the backup (external consistency).
    backup_violations: int = 0
    #: seconds from primary crash to takeover; None without a failover.
    failover: Optional[float] = None

    def to_table(self) -> Table:
        table = Table("Run summary", ["metric", "value"])
        table.add_row("objects admitted", self.admitted)
        table.add_row("responses measured", self.response.count)
        table.add_row("mean response (ms)", to_ms(self.response.mean)
                      if self.response.count else "-")
        table.add_row("p95 response (ms)", to_ms(self.response.p95)
                      if self.response.count else "-")
        table.add_row("p99 response (ms)", to_ms(self.response.p99)
                      if self.response.count else "-")
        table.add_row("p999 response (ms)", to_ms(self.response.p999)
                      if self.response.count else "-")
        if self.read_staleness.count:
            table.add_row("reads measured", self.read_staleness.count)
            table.add_row("p50 read staleness (ms)",
                          to_ms(self.read_staleness.p50))
            table.add_row("p99 read staleness (ms)",
                          to_ms(self.read_staleness.p99))
            table.add_row("p999 read staleness (ms)",
                          to_ms(self.read_staleness.p999))
            table.add_row("primary fallback rate",
                          round(self.fallback_rate, 4))
        table.add_row("starved writes", self.starved_writes)
        table.add_row("avg max P/B distance (ms)",
                      to_ms(self.avg_max_distance))
        table.add_row("avg inconsistency episode (ms)",
                      to_ms(self.avg_inconsistency))
        table.add_row("update delivery rate", round(self.delivery_rate, 4))
        table.add_row("delta_B violations at backup", self.backup_violations)
        table.add_row("failover latency (ms)",
                      to_ms(self.failover) if self.failover is not None
                      else "-")
        return table

    def render(self) -> str:
        return self.to_table().render()


def summarize_run(service: RTPBService, horizon: float,
                  warmup: float = 2.0) -> RunSummary:
    """Collect every metric for a finished run in one call."""
    metrics = collect_metrics(service, horizon, warmup)
    violations = backup_external_violations(service, warmup,
                                            max(warmup, horizon - 1.0))
    return RunSummary(
        **vars(metrics),
        backup_violations=sum(len(per_object)
                              for per_object in violations.values()),
        failover=failover_latency(service),
    )
