"""One replication group — the paper's unit of replication — viewed once.

A :class:`ReplicationGroup` is the servers of one primary/backup group and
everything monitors, collectors and faults ask of them: who holds which
role, whom the name file points at, which objects are registered.  A pair
(:class:`~repro.core.service.RTPBService`) is this group on hosts of its
own; a cluster shard (:class:`~repro.cluster.service.ShardGroup`) is this
group on shared hosts.  Either way the group holds its read tier too —
read replicas, the router and the reading clients of
:mod:`repro.replicas`, which seats them.  :func:`resolve_target` is the
one fault-target grammar over a deployment's groups.
"""

from __future__ import annotations

from collections import Counter
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.core.admission import AdmissionDecision
from repro.core.client import SensorClient
from repro.core.name_service import NameService
from repro.core.server import ReplicaServer, Role
from repro.core.spec import ObjectSpec, ServiceConfig
from repro.errors import ReplicationError
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - repro.replicas sits above repro.core
    from repro.replicas.reader import ReaderClient
    from repro.replicas.router import ReadRouter
    from repro.replicas.server import ReadReplica

#: How a fault names a server: a fabric address, a host or server name, or
#: a role selector resolved at fire time.
Target = Union[int, str]


def _is_selector(text: str) -> bool:
    """``primary``, ``backup``, ``spare``, ``deposed`` or ``replicaK``."""
    return text in ("primary", "backup", "spare", "deposed") or (
        text.startswith("replica") and text[7:].isdigit())


class ReplicationGroup:
    """One primary/backup group: its members and the roles they hold.

    ``members`` holds the current servers in creation order, primary
    first; ``name`` is the group's name-file entry and the service name
    every member serves under.
    """

    def __init__(self, sim: Simulator, config: ServiceConfig,
                 name_service: NameService, name: str) -> None:
        self.sim = sim
        self.config = config
        self.name_service = name_service
        self.name = name
        #: The prefixes a fault target may name this group by.
        self.aliases: Tuple[str, ...] = (name,)
        self.members: List[ReplicaServer] = []
        self.clients: List[SensorClient] = []
        #: The read tier, in creation order: read replicas (never members
        #: — they hold no role in failover), the router the readers share
        #: (built with the first reader) and the reading clients.
        self.replicas: List["ReadReplica"] = []
        self.router: Optional["ReadRouter"] = None
        self.readers: List["ReaderClient"] = []
        self._registered: List[ObjectSpec] = []
        #: Snapshot writes a live migration injected here, by object: the
        #: primary answers them like client writes, so they count as issued.
        self.snapshot_writes: Counter[int] = Counter()

    @property
    def service_name(self) -> str:
        return self.name

    @property
    def trace(self) -> Tracer:
        return self.sim.trace

    @property
    def groups(self) -> List["ReplicationGroup"]:
        """A group deployed on its own is a one-group deployment: this one."""
        return [self]

    @property
    def client(self) -> Optional[SensorClient]:
        """The group's sensing client (the first, if several write)."""
        return self.clients[0] if self.clients else None

    @property
    def servers(self) -> Dict[int, ReplicaServer]:
        """Members keyed by fabric address (no two share a host)."""
        return {member.host.address: member for member in self.members}

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    def register(self, spec: ObjectSpec) -> AdmissionDecision:
        """Register one object with the current primary."""
        decision = self.current_primary().register_object(spec)
        if decision.accepted:
            self._registered.append(spec)
        return decision

    def register_all(self, specs: Sequence[ObjectSpec]
                     ) -> List[AdmissionDecision]:
        """Register many objects; returns one decision per spec, in order."""
        return [self.register(spec) for spec in specs]

    def registered_specs(self) -> List[ObjectSpec]:
        """Specs accepted so far (what a client should write to)."""
        return list(self._registered)

    def object_ids(self) -> List[int]:
        return [spec.object_id for spec in self._registered]

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------

    def live_members(self) -> List[ReplicaServer]:
        return [member for member in self.members if member.alive]

    def live_replicas(self) -> List["ReadReplica"]:
        return [replica for replica in self.replicas if replica.alive]

    def _live(self, role: Role) -> List[ReplicaServer]:
        return [member for member in self.members
                if member.alive and member.role is role]

    def _first(self, role: Role) -> Optional[ReplicaServer]:
        return next((member for member in self.members
                     if member.alive and member.role is role), None)

    def current_primary(self) -> ReplicaServer:
        """The first live server playing the primary role."""
        primary = self._first(Role.PRIMARY)
        if primary is None:
            raise ReplicationError(f"no live primary in group {self.name}")
        return primary

    def current_backups(self) -> List[ReplicaServer]:
        """The live servers playing the backup role."""
        return self._live(Role.BACKUP)

    def current_backup(self) -> Optional[ReplicaServer]:
        return self._first(Role.BACKUP)

    def server_at(self, address: int) -> Optional[ReplicaServer]:
        """The member at a fabric address (live members preferred)."""
        for member in self.members:
            if member.host.address == address and member.alive:
                return member
        for member in self.members:
            if member.host.address == address:
                return member
        return None

    def replica_at(self, address: int) -> Optional["ReadReplica"]:
        """The read replica at a fabric address (live replicas preferred)."""
        for replica in self.replicas:
            if replica.host.address == address and replica.alive:
                return replica
        for replica in self.replicas:
            if replica.host.address == address:
                return replica
        return None

    def residents(self, address: int
                  ) -> "List[ReplicaServer | ReadReplica]":
        """The live members, then the live read replicas, at an address:
        what a host failure there takes down."""
        servers: "List[ReplicaServer | ReadReplica]" = [*self.members,
                                                       *self.replicas]
        return [server for server in servers
                if server.alive and server.host.address == address]

    def authoritative_primary(self) -> Optional[ReplicaServer]:
        """The live PRIMARY the name file currently points at, if any."""
        published = self.name_service.peek(self.name)
        if published is None:
            return None
        for member in self._live(Role.PRIMARY):
            if member.host.address == published:
                return member
        return None

    def select(self, selector: str
               ) -> "ReplicaServer | ReadReplica | None":
        """The member a role selector names now, or None.

        ``primary`` is the authoritative primary, else the first live one;
        ``deposed`` is a live primary the name file no longer points at
        (a split brain's loser); ``replicaK`` is the K-th live read
        replica.
        """
        if selector == "primary":
            return self.authoritative_primary() or self._first(Role.PRIMARY)
        if selector in ("backup", "spare"):
            return self._first(Role(selector))
        if selector == "deposed":
            published = self.name_service.peek(self.name)
            return next((member for member in self._live(Role.PRIMARY)
                         if member.host.address != published), None)
        if selector.startswith("replica") and selector[7:].isdigit():
            replicas = self.live_replicas()
            index = int(selector[7:])
            return replicas[index] if index < len(replicas) else None
        return None

    def announce_recovered(self, server: ReplicaServer) -> None:
        """Tell this group's live primaries a rebooted member is available
        as a spare (a reboot nobody hears about is never recruited)."""
        for primary in self._live(Role.PRIMARY):
            primary.notice_spare(server.host.address)


def resolve_target(groups: Sequence[ReplicationGroup], target: Target
                   ) -> "ReplicaServer | ReadReplica | None":
    """The server a fault target names in a deployment's ``groups``.

    ``[<group>/]<selector>`` resolves in the group the prefix names (its
    full name or a shard alias such as ``g03``); without a prefix, in the
    only group of a one-group deployment, and to nothing otherwise.  Any
    other target is an address, host name or server name, matched against
    every member in (group, member) order.  None when nothing matches —
    a fault aimed at it is a deterministic no-op.
    """
    if isinstance(target, str):
        prefix, _, selector = target.rpartition("/")
        if _is_selector(selector):
            if prefix:
                group = next((group for group in groups
                              if prefix in group.aliases), None)
            else:
                group = groups[0] if len(groups) == 1 else None
            return group.select(selector) if group is not None else None
    for group in groups:
        for member in group.members:
            if target in (member.host.address, member.host.name,
                          member.name):
                return member
    return None
