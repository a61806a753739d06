"""Performability metrics (Section 5).

The collectors compute the paper's three evaluation metrics from a finished
run's trace and stores:

- **client response time** (Figures 6-7),
- **average maximum primary-backup distance** (Figures 8-10),
- **duration of backup inconsistency** (Figures 11-12),

plus consistency-violation audits and failover timing used by the extra
benches and tests.
"""

from repro.metrics.collectors import (
    SummaryStats,
    average_inconsistency_duration,
    average_max_distance,
    backup_external_violations,
    duplicate_deliveries,
    failover_latencies,
    failover_latency,
    inconsistency_durations,
    max_distance_per_object,
    primary_external_violations,
    response_time_stats,
    response_times,
    summarize,
    unanswered_writes,
    update_delivery_rate,
)
from repro.metrics.jsonio import jsonable, stable_dumps
from repro.metrics.report import Series, Table
from repro.metrics.summary import (
    RunMetrics,
    RunSummary,
    collect_metrics,
    summarize_run,
)

__all__ = [
    "SummaryStats",
    "summarize",
    "response_times",
    "response_time_stats",
    "max_distance_per_object",
    "average_max_distance",
    "inconsistency_durations",
    "average_inconsistency_duration",
    "primary_external_violations",
    "backup_external_violations",
    "failover_latency",
    "failover_latencies",
    "unanswered_writes",
    "update_delivery_rate",
    "duplicate_deliveries",
    "Table",
    "Series",
    "RunMetrics",
    "RunSummary",
    "collect_metrics",
    "summarize_run",
    "jsonable",
    "stable_dumps",
]
