"""The trace allow-list of an elastic run.

Elastic scenarios run through :func:`repro.experiments.harness.run_scenario`
like every other topology; this module only names the categories such a
run retains.
"""

from __future__ import annotations

from repro.cluster.harness import CLUSTER_TRACE_CATEGORIES

#: The cluster allow-list plus every elastic-control-plane category:
#: migrations, autoscaler actions, window renegotiation, and the host
#: pool's growth/drain/retire events.
ELASTIC_TRACE_CATEGORIES = CLUSTER_TRACE_CATEGORIES + (
    "migration_freeze",
    "migration_transfer",
    "migration_barrier",
    "migration_commit",
    "migration_abort",
    "autoscale",
    "window_degraded",
    "window_restored",
    "cluster_host_added",
    "cluster_host_drain",
    "cluster_group_retired",
)
