"""Performability metrics (Section 5).

One pass over a finished run's trace, :func:`collect_views`, fills a
:class:`RunMetrics` — for the whole deployment and, on a cluster, for every
group — with the paper's three evaluation metrics:

- **client response time** (Figures 6-7): ``response``,
- **average maximum primary-backup distance** (Figures 8-10):
  ``avg_max_distance``,
- **duration of backup inconsistency** (Figures 11-12):
  ``avg_inconsistency``,

plus starved writes, update delivery, read-path and fast-path numbers.
:func:`collect_metrics` returns the whole deployment's alone.  The
collectors beside it answer what ``RunMetrics`` does not carry: per-object
distances and lateness episodes, consistency-violation audits, failover
timing and duplicate deliveries.
"""

from repro.metrics.collectors import (
    SummaryStats,
    backup_external_violations,
    duplicate_deliveries,
    failover_latencies,
    failover_latency,
    lateness_episodes,
    max_distance_per_object,
    primary_external_violations,
    summarize,
)
from repro.metrics.jsonio import jsonable, stable_dumps
from repro.metrics.report import Series, Table
from repro.metrics.summary import (
    RunMetrics,
    RunSummary,
    collect_metrics,
    collect_views,
    summarize_run,
)

__all__ = [
    "SummaryStats",
    "summarize",
    "max_distance_per_object",
    "lateness_episodes",
    "primary_external_violations",
    "backup_external_violations",
    "failover_latency",
    "failover_latencies",
    "duplicate_deliveries",
    "Table",
    "Series",
    "RunMetrics",
    "RunSummary",
    "collect_metrics",
    "collect_views",
    "summarize_run",
    "jsonable",
    "stable_dumps",
]
