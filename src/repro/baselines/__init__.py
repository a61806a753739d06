"""Replication disciplines: the paper's protocol and what it is compared to.

A discipline is one :class:`~repro.core.server.ReplicaServer` subclass, run
by every member of a group whatever its role — so a backup promoted at
failover keeps the discipline — behind either facade:
``RTPBService(server_class=...)`` for a pair,
``ClusterService(server_class=...)`` for every shard of a cluster.
:data:`DISCIPLINES` names all seven; ``replication`` on every scenario
takes the same names, so figure sweeps, chaos schedules,
:mod:`repro.parallel` and the collectors apply to every discipline on
every topology unchanged.

- ``rtpb`` — :class:`~repro.core.server.ReplicaServer`, the paper's
  protocol: decoupled periodic transmission bounded by the window.
- ``window_consistent`` —
  :class:`~repro.baselines.window_consistent.WindowConsistentServer`, Mehra,
  Rexford & Jahanian's window-consistent replication, the work RTPB builds
  on: update transmission is *coupled* to client writes (one send per
  write, due within δ - ℓ), i.e. the Theorem 5 special case rather than
  RTPB's decoupled periodic tasks.
- ``eager`` — :class:`~repro.baselines.eager.EagerServer`, classical
  synchronous primary-backup: every client write is propagated to the
  backup and the response waits for the backup's ack.  Zero staleness, but
  response time pays a network round trip plus backup apply — the overhead
  the paper's relaxation removes.
- ``eager_fastpath`` — :class:`~repro.baselines.fastpath.FastPathEagerServer`,
  eager plus the commutative/timestamp-stable fast path of
  :mod:`repro.core.fastpath`: writes that provably commute with everything
  the backup has not yet acked (or that are already covered by its acked
  high-water mark) are answered before the round trip.
- ``active`` / ``semi_active`` —
  :class:`~repro.baselines.active.ActiveReplica` /
  :class:`~repro.baselines.active.SemiActiveReplica`, sequencer-ordered
  state-machine replication and the hybrid that answers after the local
  apply.
- ``multi_backup`` — :class:`~repro.baselines.multibackup.MultiBackupServer`,
  the paper's first future-work item: a succession of backups with chained
  failover — the discipline for groups keeping more than one backup.
"""

from typing import Dict, Type

from repro.baselines.active import ActiveReplica, SemiActiveReplica
from repro.baselines.eager import EagerServer
from repro.baselines.fastpath import FastPathEagerServer
from repro.baselines.multibackup import (
    MultiBackupServer,
    MultiBackupServerError,
)
from repro.baselines.window_consistent import WindowConsistentServer
from repro.core.server import ReplicaServer

#: Every replication discipline by its ``BaseScenario.replication`` name.
DISCIPLINES: Dict[str, Type[ReplicaServer]] = {
    "rtpb": ReplicaServer,
    "window_consistent": WindowConsistentServer,
    "eager": EagerServer,
    "eager_fastpath": FastPathEagerServer,
    "active": ActiveReplica,
    "semi_active": SemiActiveReplica,
    "multi_backup": MultiBackupServer,
}


def discipline(name: str, backups: int = 1) -> Type[ReplicaServer]:
    """The server class registered under ``name``, for groups keeping
    ``backups`` backups each."""
    try:
        server_class = DISCIPLINES[name]
    except KeyError:
        raise ValueError(
            f"unknown replication discipline {name!r}; known: "
            f"{', '.join(sorted(DISCIPLINES))}") from None
    limit = server_class.max_backups
    if limit is not None and backups > limit:
        able = [other for other, cls in DISCIPLINES.items()
                if cls.max_backups is None or cls.max_backups >= backups]
        raise ValueError(
            f"{name!r} replicates to at most {limit} backup(s), not "
            f"{backups}; use replication={' or '.join(map(repr, able))}")
    return server_class


__all__ = [
    "DISCIPLINES",
    "discipline",
    "WindowConsistentServer",
    "EagerServer",
    "FastPathEagerServer",
    "ActiveReplica",
    "SemiActiveReplica",
    "MultiBackupServer",
    "MultiBackupServerError",
]
