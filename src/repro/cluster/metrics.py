"""Cluster-scope metrics: cluster-wide and per group, from one pass.

:func:`~repro.metrics.summary.collect_views` reads the shared trace once
and credits each record to its object's group, so one call yields the
cluster-wide :class:`~repro.metrics.summary.RunMetrics` the sweep machinery
already understands and one :class:`RunMetrics` per group for blast-radius
analysis (e.g. "killing g00's primary moved g00's numbers and nobody
else's").  :func:`collect_cluster` packages the two layers as a
:class:`ClusterMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.metrics.summary import RunMetrics, collect_views

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.service import ClusterService


@dataclass(frozen=True)
class ClusterMetrics:
    """Two-layer metrics of one finished cluster run (picklable)."""

    #: Cluster-wide numbers (all objects, all groups, one aggregate).
    cluster: RunMetrics
    #: Per-group numbers, keyed by group name, in gid order.
    per_group: Dict[str, RunMetrics]


def collect_cluster(cluster: "ClusterService", horizon: float,
                    warmup: float = 2.0) -> ClusterMetrics:
    """Compute cluster-wide and per-group metrics in one call."""
    return ClusterMetrics(*collect_views(cluster, horizon, warmup))
