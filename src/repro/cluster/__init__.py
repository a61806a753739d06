"""``repro.cluster`` — sharded multi-group RTPB on one simulator.

The paper evaluates a single primary/backup pair; this package scales the
same protocol out: a deterministic shard map routes objects to replication
groups, a placement engine puts each group's replicas on a host pool under
per-host RM admission budgets, the shared name service becomes a cluster
directory with a stale-entry guard, and a manager sweep re-places groups
whose hosts died.  Per-group failover is still exactly the Section 4
machinery — each shard is the same :class:`~repro.core.group.ReplicationGroup`
a pair deployment is, running the scenario's replication discipline — and
the cluster layer only decides *where* replicas live and *how clients find
them*.

The scenario type and runner live one layer up to keep imports acyclic:
:class:`repro.workload.cluster.ClusterScenario` runs through
:func:`repro.experiments.harness.run_scenario` (``repro.cluster.harness``,
which names the run's trace allow-list, is deliberately not imported here).
"""

from repro.cluster.metrics import ClusterMetrics, collect_cluster
from repro.cluster.monitor import ClusterInvariantMonitor
from repro.cluster.placement import (
    HostSlot,
    Placement,
    PlacementEngine,
    PlacementRejection,
)
from repro.cluster.service import (
    CLUSTER_PORT_BASE,
    ClusterService,
    ShardGroup,
)
from repro.cluster.shardmap import ShardMap

__all__ = [
    "CLUSTER_PORT_BASE",
    "ClusterInvariantMonitor",
    "ClusterMetrics",
    "ClusterService",
    "HostSlot",
    "Placement",
    "PlacementEngine",
    "PlacementRejection",
    "ShardGroup",
    "ShardMap",
    "collect_cluster",
]
