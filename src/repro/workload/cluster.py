"""Cluster scenarios: every knob of a sharded multi-group run, as a value.

:class:`ClusterScenario` is the sharded topology of
:class:`~repro.workload.scenarios.BaseScenario` — frozen, slotted,
picklable — so sweeps over shard counts, host pools, loss rates and
replication disciplines ride the existing :mod:`repro.parallel` machinery
unchanged.  :func:`build_cluster` turns one into a ready-to-start
:class:`~repro.cluster.service.ClusterService` with every object routed to
its owning shard (placement, admission and client creation all happen
inside ``start()``).

This module imports :mod:`repro.cluster.service` directly (not the package
facade) to keep the layering acyclic: ``repro.cluster`` must never import
``repro.workload.cluster``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Tuple

from repro.baselines import discipline
from repro.cluster.harness import CLUSTER_TRACE_CATEGORIES
from repro.cluster.service import ClusterService
from repro.workload.scenarios import BaseScenario


@dataclass(frozen=True, slots=True)
class ClusterScenario(BaseScenario):
    """Parameters for one sharded cluster run (a picklable value).

    Every member of every group runs the ``replication`` discipline;
    ``backups_per_group > 1`` needs one that replicates to several
    (``"multi_backup"``).
    """

    n_shards: int = 16
    n_hosts: int = 6
    backups_per_group: int = 1
    #: Manager sweep period, seconds (re-placement / spare recruitment).
    rebalance_period: float = 0.5

    trace_categories: ClassVar[Tuple[str, ...]] = CLUSTER_TRACE_CATEGORIES

    def build(self) -> ClusterService:
        return build_cluster(self)


def build_cluster(scenario: ClusterScenario) -> ClusterService:
    """Instantiate a cluster per ``scenario``: objects routed, not started."""
    cluster = ClusterService(
        config=scenario.config(),
        seed=scenario.seed,
        loss_model=scenario.loss_model(),
        n_shards=scenario.n_shards,
        n_hosts=scenario.n_hosts,
        backups_per_group=scenario.backups_per_group,
        rebalance_period=scenario.rebalance_period,
        write_jitter=scenario.write_jitter,
        n_replicas=scenario.n_replicas,
        read_period=scenario.read_period,
        read_policy=scenario.read_policy,
        server_class=discipline(scenario.replication,
                                backups=scenario.backups_per_group),
    )
    cluster.register_all(scenario.specs())
    return cluster
