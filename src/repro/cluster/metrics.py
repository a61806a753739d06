"""Cluster-scope metric aggregation: per-group and cluster-wide.

The existing collectors in :mod:`repro.metrics.collectors` are pure
functions of a deployment view, so they run unchanged over one
:class:`~repro.core.group.ReplicationGroup` (its ``registered_specs``
and ``objects=`` filters scope every count to the shard, even though all
groups share one trace) and over the whole
:class:`~repro.cluster.service.ClusterService` (no filter: every record
counts).  :func:`collect_cluster` packages both layers into a
:class:`ClusterMetrics` — the cluster-wide
:class:`~repro.metrics.summary.RunMetrics` the sweep machinery already
understands, plus one :class:`RunMetrics` per group for blast-radius
analysis (e.g. "killing g00's primary moved g00's numbers and nobody
else's").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.core.group import ReplicationGroup
from repro.metrics.summary import RunMetrics, collect_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.service import ClusterService


@dataclass(frozen=True)
class ClusterMetrics:
    """Two-layer metrics of one finished cluster run (picklable)."""

    #: Cluster-wide numbers (all objects, all groups, one aggregate).
    cluster: RunMetrics
    #: Per-group numbers, keyed by group name, in gid order.
    per_group: Dict[str, RunMetrics]


def collect_group(group: ReplicationGroup, horizon: float,
                  warmup: float = 2.0) -> RunMetrics:
    """Compute :class:`RunMetrics` for one group of a finished cluster run."""
    return collect_metrics(group, horizon, warmup,
                           objects=group.object_ids())


def collect_cluster(cluster: "ClusterService", horizon: float,
                    warmup: float = 2.0) -> ClusterMetrics:
    """Compute cluster-wide and per-group metrics in one call."""
    return ClusterMetrics(
        cluster=collect_metrics(cluster, horizon, warmup),
        per_group=cluster.collect_groups(horizon, warmup))
