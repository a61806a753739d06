"""One-call run summaries: every paper metric for a finished deployment.

:class:`RunMetrics` is the picklable record sweeps ship between processes;
:func:`collect_metrics` fills the fields every topology reports — a single
pair, one group of a cluster, or a whole cluster — from one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.group import ReplicationGroup
from repro.core.service import RTPBService
from repro.metrics.collectors import (
    SummaryStats,
    backup_external_violations,
    distance_and_inconsistency,
    failover_latency,
    mean_or_zero,
    primary_fallback_rate,
    read_slo_violations,
    response_time_stats,
    served_read_stats,
    unanswered_writes,
    update_delivery_rate,
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
    #: Read path (repro.replicas); inert defaults on write-only runs.
    read_throughput: float = 0.0
    read_staleness: SummaryStats = field(
        default_factory=SummaryStats.empty)
    slo_violations: int = 0
    fallback_rate: float = 0.0
    #: Fast path (repro.core.fastpath); inert defaults elsewhere.
    fastpath_hit_rate: float = 0.0
    fast_response: SummaryStats = field(default_factory=SummaryStats.empty)
    deferred_response: SummaryStats = field(
        default_factory=SummaryStats.empty)
    #: Writes completed degraded (backup died before acking; eager only).
    degraded_responses: int = 0

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


def collect_metrics(view: "ReplicationGroup | ClusterService",
                    horizon: float, warmup: float = 2.0,
                    objects: Optional[Iterable[int]] = None) -> RunMetrics:
    """The :class:`RunMetrics` fields every topology shares.

    ``view`` is one group (a pair deployment, a cluster shard) or a whole
    cluster; ``objects`` scopes the trace-counting collectors to one group
    of a cluster whose groups share a trace.
    """
    read_throughput, read_staleness = served_read_stats(
        view, horizon, start=warmup, objects=objects)
    distance, inconsistency = distance_and_inconsistency(view, horizon,
                                                         start=warmup)
    return RunMetrics(
        admitted=len(view.registered_specs()),
        response=response_time_stats(view, start=warmup, objects=objects),
        starved_writes=unanswered_writes(view, objects=objects),
        avg_max_distance=mean_or_zero(distance.values()),
        avg_inconsistency=mean_or_zero(inconsistency),
        delivery_rate=update_delivery_rate(view, objects=objects),
        read_throughput=read_throughput,
        read_staleness=read_staleness,
        slo_violations=read_slo_violations(view, objects=objects),
        fallback_rate=primary_fallback_rate(view, start=warmup,
                                            objects=objects),
    )


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
