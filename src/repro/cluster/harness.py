"""The trace allow-list of a cluster run.

Cluster scenarios run through :func:`repro.experiments.harness.run_scenario`
like every other topology; this module only names the categories such a
run retains.
"""

from __future__ import annotations

from repro.metrics.collectors import METRIC_TRACE_CATEGORIES

#: The metric allow-list plus the cluster-management and directory
#: categories — placement, rejection feedback, host deaths and name-file
#: changes are part of a cluster run's observable story.
CLUSTER_TRACE_CATEGORIES = METRIC_TRACE_CATEGORIES + (
    "cluster_place",
    "cluster_reject",
    "cluster_host_down",
    "name_update",
    "name_unpublish",
)
