"""The sharded cluster facade: many RTPB groups, one simulator, one fabric.

:class:`ClusterService` scales the paper's single primary/backup pair out
to *N* replication groups (one per shard) co-located on a pool of *M*
simulated hosts:

- the :class:`~repro.cluster.shardmap.ShardMap` assigns each registered
  object to its owning group (rendezvous hashing over object names);
- the :class:`~repro.cluster.placement.PlacementEngine` places each
  group's primary and backup(s) on distinct hosts, but only where the
  per-host RM admission budget accepts the group's aggregate update task
  set (Section 4.2's test, applied to co-located shards);
- the shared :class:`~repro.core.name_service.NameService` acts as the
  cluster directory — one entry per group — and carries a liveness probe
  so clients of a dead, not-yet-failed-over group get
  :class:`~repro.errors.NoRouteError` instead of a dead address;
- a periodic **manager sweep** (the rebalancer) replaces groups whose
  hosts all died (re-running admission on the surviving hosts, with
  rejection feedback when the cluster is over capacity) and recruits
  spares for groups that lost one replica;
- optional **read replicas** (:mod:`repro.replicas`): each group gets
  ``replicas_per_group`` window-consistent :class:`ReadReplica` seats on
  hosts holding none of its other members, published as role-tagged
  directory entries (``group#replicaK``), recruited back by the same
  manager sweep when they die.

Each group is a :class:`~repro.core.group.ReplicationGroup` — the same
group view a pair deployment is — so `SensorClient`, `InvariantMonitor`,
the metric collectors and the fault-target grammar run unchanged per
shard; :class:`ShardGroup` adds only the manager's per-shard bookkeeping.
The member class is the scenario's replication discipline.

Trace categories: ``cluster_place``, ``cluster_reject``,
``cluster_host_down``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from repro.core.admission import AdmissionController
from repro.core.client import SensorClient
from repro.core.group import ReplicationGroup
from repro.core.name_service import ROLE_SEPARATOR, NameService
from repro.core.server import ReplicaServer, Role, build_processor
from repro.core.spec import ObjectSpec, SchedulingMode, ServiceConfig
from repro.errors import ClusterError, ReplicationError
from repro.net.ip import Host
from repro.net.link import LossModel, NetworkFabric
from repro.replicas.reader import ReaderClient
from repro.replicas.router import POLICIES, ReadRouter
from repro.replicas.server import ReadReplica
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.workload.environment import EnvironmentModel

from repro.cluster.placement import (
    HostSlot,
    Placement,
    PlacementEngine,
    PlacementRejection,
)
from repro.cluster.shardmap import ShardMap

#: Each group binds ``CLUSTER_PORT_BASE + gid`` on every host it occupies,
#: so co-located groups demultiplex cleanly on one shared UDP stack.
CLUSTER_PORT_BASE = 7000


class ShardGroup(ReplicationGroup):
    """One shard's group plus what the cluster manager keeps about it.

    It persists across *incarnations* (initial placement, re-placements
    after host deaths); ``members`` holds the live incarnation's servers.
    """

    def __init__(self, cluster: "ClusterService", gid: int) -> None:
        super().__init__(cluster.sim, cluster.config, cluster.name_service,
                         f"{cluster.service_name}/g{gid:02d}")
        self.gid = gid
        self.aliases = (self.name, f"g{gid:02d}", f"g{gid}")
        self.port = CLUSTER_PORT_BASE + gid
        #: Objects the shard map routed here (registration order).
        self.specs: List[ObjectSpec] = []
        #: Decommissioned servers of earlier incarnations (debugging).
        self.retired: List[ReplicaServer] = []
        self.parked = False
        #: Scale-in retired this group for good: the sweep skips it and it
        #: is never re-placed (its objects migrated away first).
        self.retired_for_good = False
        #: Completed placements (1 = initial, +1 per re-placement).
        self.placements = 0
        #: Retired forebears of the live read replicas.
        self.retired_replicas: List[ReadReplica] = []
        self.reader: Optional[ReaderClient] = None
        self.router: Optional[ReadRouter] = None
        #: Monotonic role-name counter: each recruited replica gets a fresh
        #: ``replicaK`` so directory entries never collide across repairs.
        self.replica_seq = 0
        self.replica_parked = False

    def replica_at(self, address: int) -> Optional[ReadReplica]:
        """This group's live read replica at a fabric address, if any."""
        for replica in self.replicas:
            if replica.alive and replica.host.address == address:
                return replica
        return None


class ClusterService:
    """A sharded RTPB deployment: N groups over M hosts, one simulator."""

    def __init__(self, config: Optional[ServiceConfig] = None, seed: int = 0,
                 loss_model: Optional[LossModel] = None,
                 n_shards: int = 16, n_hosts: int = 6,
                 backups_per_group: int = 1,
                 rebalance_period: float = 0.5,
                 write_jitter: float = 0.0,
                 replicas_per_group: int = 0,
                 read_period: float = 0.0,
                 read_policy: str = "round_robin",
                 service_name: str = "rtpb",
                 server_class: Type[ReplicaServer] = ReplicaServer) -> None:
        self.config = config if config is not None else ServiceConfig()
        if self.config.scheduling_mode is SchedulingMode.COMPRESSED:
            raise ClusterError(
                "compressed update scheduling claims the whole CPU idle "
                "callback and cannot be shared between co-located groups")
        if self.config.use_deferrable_server:
            raise ClusterError(
                "per-server deferrable-server reservations are not "
                "supported on shared cluster hosts")
        if n_shards < 1:
            raise ClusterError(f"need at least one shard, got {n_shards}")
        if backups_per_group < 1:
            raise ClusterError(
                f"need at least one backup per group, got {backups_per_group}")
        if n_hosts < backups_per_group + 1:
            raise ClusterError(
                f"{n_hosts} hosts cannot hold a primary plus "
                f"{backups_per_group} backup(s) on distinct hosts")
        if rebalance_period <= 0:
            raise ClusterError(
                f"rebalance period must be > 0: {rebalance_period}")
        if replicas_per_group < 0:
            raise ClusterError(
                f"replicas per group must be >= 0: {replicas_per_group}")
        if read_period < 0:
            raise ClusterError(f"read period must be >= 0: {read_period}")
        if read_policy not in POLICIES:
            raise ClusterError(
                f"unknown read policy {read_policy!r}; "
                f"choose one of {', '.join(POLICIES)}")

        #: Every member's class: the replication discipline.
        self.server_class = server_class
        self.service_name = service_name
        self.n_shards = n_shards
        self.n_hosts = n_hosts
        self.backups_per_group = backups_per_group
        self.rebalance_period = rebalance_period
        self.write_jitter = write_jitter
        self.replicas_per_group = replicas_per_group
        self.read_period = read_period
        self.read_policy = read_policy

        self.sim = Simulator(seed=seed)
        self.fabric = NetworkFabric(
            self.sim, delay_bound=self.config.ell,
            delay_min=self.config.link_delay_min, loss_model=loss_model)
        self.name_service = NameService(self.sim)
        self.name_service.set_liveness_probe(self._entry_alive)
        self.environment = EnvironmentModel(seed=seed)
        self.shard_map = ShardMap(n_shards, salt=service_name)

        #: The host pool: fabric addresses 1..n_hosts, shared CPUs.
        self.slots: Dict[int, HostSlot] = {}
        for index in range(n_hosts):
            address = index + 1
            host = Host(self.sim, self.fabric, f"host{address}", address)
            self.slots[address] = HostSlot(
                host=host,
                processor=build_processor(self.sim, self.config,
                                          name=f"{host.name}.cpu"),
                admission=AdmissionController(self.config))
        self.placement = PlacementEngine(self.slots, self.shard_map,
                                         self.config)

        self.groups: List[ShardGroup] = [
            ShardGroup(self, gid) for gid in range(n_shards)]
        self._groups_by_name: Dict[str, ShardGroup] = {
            group.name: group for group in self.groups}
        #: Every placement rejection, in occurrence order (over-capacity
        #: feedback; also traced as ``cluster_reject``).
        self.rejections: List[PlacementRejection] = []
        self._started = False

    # ------------------------------------------------------------------
    # Configuration phase
    # ------------------------------------------------------------------

    def register(self, spec: ObjectSpec) -> ShardGroup:
        """Route one object to its owning group (admission runs at
        placement time, against the destination hosts' budgets)."""
        if self._started:
            raise ClusterError("register objects before start()")
        group = self.groups[self.shard_map.shard_of(spec.name)]
        group.specs.append(spec)
        return group

    def register_all(self, specs: Sequence[ObjectSpec]
                     ) -> List[ShardGroup]:
        return [self.register(spec) for spec in specs]

    def registered_specs(self) -> List[ObjectSpec]:
        """Accepted specs across all groups, ordered by object id."""
        merged = [spec for group in self.groups
                  for spec in group.registered_specs()]
        return sorted(merged, key=lambda spec: spec.object_id)

    def group_named(self, name: str) -> ShardGroup:
        group = self._groups_by_name.get(name)
        if group is None:
            raise ClusterError(f"no group named {name!r}")
        return group

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Place every group and start the manager sweep (idempotent)."""
        if self._started:
            return
        self._started = True
        for group in self.groups:
            self._place_group(group, event="initial")
        for group in self.groups:
            self._ensure_replicas(group)
        self.sim.schedule(self.rebalance_period, self._sweep)

    def run(self, horizon: float) -> None:
        self.start()
        self.sim.run(until=horizon)

    # ------------------------------------------------------------------
    # Placement / re-placement
    # ------------------------------------------------------------------

    def _place_group(self, group: ShardGroup, event: str) -> bool:
        """Place one group's replicas; False (and feedback) on rejection."""
        placed = self.placement.place_group(
            group.gid, group.specs, self.backups_per_group, self.sim.now)
        if isinstance(placed, PlacementRejection):
            self._park(group, "parked", placed)
            return False
        group.parked = False
        self._instantiate(group, placed, event)
        return True

    def _park(self, group: ShardGroup, flag: str,
              rejection: PlacementRejection) -> None:
        """Raise the group's park ``flag``; a rejection is reported (the
        feedback list, a ``cluster_reject`` record) once per parked spell."""
        if getattr(group, flag):
            return
        setattr(group, flag, True)
        self.rejections.append(rejection)
        self.sim.trace.record(
            "cluster_reject", group=group.name, role=rejection.role,
            reason=rejection.reason)

    def _instantiate(self, group: ShardGroup,
                     placed: Placement, event: str) -> None:
        """Create, register and start one incarnation of a group."""
        primary_slot = self.slots[placed.primary]
        backup_slots = [self.slots[address] for address in placed.backups]
        new_members = self.server_class.build_group(
            self.sim, self.config, self.name_service, group.name,
            primary=primary_slot.host,
            backups=[slot.host for slot in backup_slots],
            seat=lambda host: self._seat(group, host))
        group.members.extend(new_members)
        group._registered = []
        group.register_all(group.specs)
        self.sim.trace.record(
            "cluster_place", group=group.name, event=event,
            primary=primary_slot.host.name,
            backups=",".join(slot.host.name for slot in backup_slots),
            objects=len(group._registered))
        if group.client is None and group._registered:
            client = SensorClient(
                self.sim, self.environment, self.name_service, group.name,
                resolver=group.server_at, specs=group._registered,
                name=f"{group.name}.client", write_jitter=self.write_jitter)
            group.clients.append(client)
            if self._started:
                client.start()
        if (group.reader is None and group._registered
                and self.read_period > 0):
            group.router = ReadRouter(
                self.sim, self.name_service, group.name,
                resolver=group.replica_at, config=self.config,
                policy=self.read_policy, fabric=self.fabric)
            group.reader = ReaderClient(
                self.sim, self.name_service, group.name,
                router=group.router, resolver=group.server_at,
                specs=group._registered, read_period=self.read_period,
                name=f"{group.name}.reader")
            if self._started:
                group.reader.start()
        for member in new_members:
            member.local_client = group.client
        for member in new_members:
            member.start()
        group.placements += 1

    def _seat(self, group: ShardGroup, host: Host) -> Dict[str, object]:
        """Constructor keywords of a group member co-located on ``host``:
        the group's port, the host's shared CPU, process-level crashes."""
        return dict(port=group.port,
                    processor=self.slots[host.address].processor,
                    owns_host=False, name=f"{group.name}@{host.name}")

    def _retire_dead(self, group: ShardGroup) -> None:
        """Decommission dead members: close their group port, refund their
        hosts' admission charges, move them to the retired list."""
        keep: List[ReplicaServer] = []
        for member in group.members:
            if member.alive:
                keep.append(member)
                continue
            member.decommission()
            self.placement.release(group.gid, member.host.address)
            group.retired.append(member)
        group.members = keep

    # ------------------------------------------------------------------
    # The manager sweep (rebalancer)
    # ------------------------------------------------------------------

    def _sweep(self) -> None:
        """Periodic management-plane pass over the groups, in gid order.

        A group with no live member is fully re-placed on the surviving
        hosts (admission re-checked; parked with rejection feedback when
        the cluster is over capacity — and retried every sweep).  A pair
        group that lost its backup gets a spare recruited next to its
        authoritative primary.  Multi-backup groups only get the full
        re-placement treatment: their partial repair (re-filling one seat
        of a succession list) is a documented non-goal.
        """
        for group in self.groups:
            if group.retired_for_good:
                continue
            if not group.live_members():
                if self.placement.owner_of(group.gid) is not None:
                    # A migration holds this group's reconfiguration token:
                    # re-placing it here would double-place (the migration
                    # aborts on its own and releases the token; the next
                    # sweep then repairs the group).
                    continue
                self._retire_dead(group)
                self.name_service.unpublish(group.name)
                # A full group loss orphans its read replicas: their
                # subscription lineage died with the incarnation, so retire
                # them too and recruit fresh ones against the new primary.
                self._retire_replicas(group, only_dead=False)
                self._place_group(group, event="replace")
            elif self.backups_per_group == 1:
                self._repair_pair(group)
            self._ensure_replicas(group)
        self.sim.schedule(self.rebalance_period, self._sweep)

    def _repair_pair(self, group: ShardGroup) -> None:
        spare = group.select("spare")
        if spare is None and group.current_backup() is None:
            self._spawn_spare(group)
            return
        # A spare can stall mid-recruitment (e.g. the RECRUIT exchange was
        # cut by a partition until the primary gave up): re-nudge the
        # authoritative primary while it has no peer.
        primary = group.authoritative_primary()
        if (spare is not None and primary is not None
                and primary.peer_address is None):
            primary.notice_spare(spare.host.address)

    def _spawn_spare(self, group: ShardGroup) -> None:
        """Place a fresh SPARE for a pair group that lost one replica and
        hand it to the authoritative primary for recruitment."""
        primary = group.authoritative_primary()
        if primary is None:
            return  # failover still in flight; retry next sweep
        self._retire_dead(group)
        exclude = [member.host.address for member in group.members]
        placed = self.placement.place_replica(
            group.gid, group.specs, "spare", self.sim.now, exclude=exclude)
        if isinstance(placed, PlacementRejection):
            self._park(group, "parked", placed)
            return
        group.parked = False
        slot = self.slots[placed]
        spare = self.server_class(
            self.sim, slot.host, self.config, self.name_service,
            role=Role.SPARE, service_name=group.name,
            **self._seat(group, slot.host))
        spare.local_client = group.client
        group.members.append(spare)
        spare.start()
        self.sim.trace.record("cluster_place", group=group.name,
                              event="spare", primary=primary.name,
                              backups=slot.host.name,
                              objects=len(group._registered))
        primary.notice_spare(placed)

    # ------------------------------------------------------------------
    # Read-replica recruitment (repro.replicas at cluster scale)
    # ------------------------------------------------------------------

    def _ensure_replicas(self, group: ShardGroup) -> None:
        """Bring a group's replica count back to target (sweep + startup).

        Dead replicas are decommissioned and their admission charges
        refunded first; a group without live members gets no replicas (a
        replica needs a primary to subscribe to — recruitment resumes the
        sweep after re-placement succeeds).
        """
        if self.replicas_per_group <= 0:
            return
        self._retire_replicas(group, only_dead=True)
        if not group.live_members():
            return
        while len(group.replicas) < self.replicas_per_group:
            if not self._spawn_read_replica(group):
                break

    def _retire_replicas(self, group: ShardGroup,
                         only_dead: bool) -> None:
        keep: List[ReadReplica] = []
        for replica in group.replicas:
            if only_dead and replica.alive:
                keep.append(replica)
                continue
            replica.decommission()
            self.placement.release(group.gid, replica.host.address)
            group.retired_replicas.append(replica)
        group.replicas = keep

    def _spawn_read_replica(self, group: ShardGroup) -> bool:
        """Place and start one read replica; False (+ feedback) on
        rejection.  Replicas land on hosts holding none of the group's
        other seats — a replica co-located with its primary would die with
        it, defeating the read path's availability purpose — and charge
        the host's admission budget like any other apply stream."""
        exclude = ([member.host.address for member in group.members]
                   + [replica.host.address for replica in group.replicas])
        role = f"replica{group.replica_seq}"
        placed = self.placement.place_replica(
            group.gid, group.specs, role, self.sim.now, exclude=exclude)
        if isinstance(placed, PlacementRejection):
            self._park(group, "replica_parked", placed)
            return False
        group.replica_parked = False
        group.replica_seq += 1
        slot = self.slots[placed]
        replica = ReadReplica(
            self.sim, slot.host, self.config, self.name_service,
            service_name=group.name, role_name=role, port=group.port,
            processor=slot.processor, owns_host=False,
            name=f"{group.name}/{role}@{slot.host.name}")
        group.replicas.append(replica)
        replica.start()
        self.sim.trace.record(
            "cluster_place", group=group.name, event="replica",
            primary=role, backups=slot.host.name,
            objects=len(group._registered))
        return True

    # ------------------------------------------------------------------
    # Host-level failures
    # ------------------------------------------------------------------

    def kill_host(self, address: int) -> None:
        """Take a whole machine down: NIC, budget, every resident server.

        Dead hosts never rejoin the pool in this model (recovered capacity
        would arrive as *new* hosts); the manager sweep re-places any group
        this kill left without live members.
        """
        slot = self.slots.get(address)
        if slot is None:
            raise ClusterError(f"no host at address {address}")
        if not slot.alive:
            return
        slot.alive = False
        slot.host.fail()
        self.sim.trace.record("cluster_host_down", host=slot.host.name,
                              address=address)
        for group in self.groups:
            for member in group.members:
                if member.host.address == address and member.alive:
                    member.crash()
            for replica in group.replicas:
                if replica.host.address == address and replica.alive:
                    replica.crash()

    # ------------------------------------------------------------------
    # Elastic reconfiguration (repro.elastic's control-plane surface)
    # ------------------------------------------------------------------

    def add_group(self) -> ShardGroup:
        """Grow the cluster by one shard: a fresh, initially-empty group.

        The shard map is regrown to ``n+1`` shards (rendezvous hashing
        guarantees objects only ever move *into* the new shard) and the new
        group is placed immediately — with no objects yet, placement always
        succeeds on any live host pair.  The objects the new map assigns to
        the new shard arrive by live migration, not here.
        """
        if not self._started:
            raise ClusterError("add groups after start() (use n_shards "
                               "for the static layout)")
        retired = [group for group in self.groups if group.retired_for_good]
        if retired:
            # Scale-in only retires from the top gid down, so reviving the
            # lowest retired group keeps the active gids contiguous — the
            # precondition for rendezvous-map regrowth.
            group = min(retired, key=lambda candidate: candidate.gid)
            group.retired_for_good = False
        else:
            group = ShardGroup(self, len(self.groups))
            self.groups.append(group)
            self._groups_by_name[group.name] = group
        active = len([g for g in self.groups if not g.retired_for_good])
        self.n_shards = active
        self.shard_map = ShardMap(active, salt=self.service_name)
        self.placement.shard_map = self.shard_map
        self._place_group(group, event="scale_out")
        return group

    def retire_group(self, group: ShardGroup) -> None:
        """Take a (by now object-free) group out of service for good."""
        group.retired_for_good = True
        self._retire_replicas(group, only_dead=False)
        for member in group.members:
            member.decommission()
            group.retired.append(member)
        group.members = []
        self.placement.release(group.gid)
        self.name_service.unpublish(group.name)
        self.n_shards = len([g for g in self.groups
                             if not g.retired_for_good])
        self.sim.trace.record("cluster_group_retired", group=group.name)

    def add_host(self) -> HostSlot:
        """Recruit one fresh machine into the pool (autoscaler action)."""
        address = max(self.slots) + 1
        host = Host(self.sim, self.fabric, f"host{address}", address)
        slot = HostSlot(
            host=host,
            processor=build_processor(self.sim, self.config,
                                      name=f"{host.name}.cpu"),
            admission=AdmissionController(self.config))
        self.slots[address] = slot
        self.n_hosts = len(self.slots)
        self.sim.trace.record("cluster_host_added", host=host.name,
                              address=address)
        return slot

    def mark_draining(self, address: int) -> None:
        """Exclude a host from future placement (rolling decommission).

        The resident seats are evacuated by the elastic controller one
        group at a time; marking only stops *new* work landing here.
        """
        slot = self.slots.get(address)
        if slot is None:
            raise ClusterError(f"no host at address {address}")
        if slot.draining or not slot.alive:
            return
        slot.draining = True
        self.sim.trace.record("cluster_host_drain", host=slot.host.name,
                              address=address)

    # ------------------------------------------------------------------
    # Directory liveness (the stale-entry guard)
    # ------------------------------------------------------------------

    def _entry_alive(self, name: str, address: int) -> bool:
        """Name-file probe: is a live PRIMARY of ``name``'s group actually
        at ``address``?  Role-tagged entries (``group#replicaK``) probe the
        named read replica instead.  Foreign names pass."""
        if ROLE_SEPARATOR in name:
            base, role = name.split(ROLE_SEPARATOR, 1)
            group = self._groups_by_name.get(base)
            if group is None:
                return True
            return any(replica.alive and replica.role_name == role
                       and replica.host.address == address
                       for replica in group.replicas)
        group = self._groups_by_name.get(name)
        if group is None:
            return True
        return any(member.alive and member.role is Role.PRIMARY
                   and member.host.address == address
                   for member in group.members)

    # ------------------------------------------------------------------
    # Introspection / fault-injection surface
    # ------------------------------------------------------------------

    @property
    def clients(self) -> List[SensorClient]:
        return [client for group in self.groups for client in group.clients]

    def current_primary(self) -> ReplicaServer:
        """A sharded cluster has no single primary — ask a group.

        Raising :class:`ReplicationError` (not ``AttributeError``) keeps the
        cluster usable as a whole-deployment view for the metric collectors,
        whose provisioning fallback catches exactly that.
        """
        raise ReplicationError(
            "a sharded cluster has no single primary; use "
            "group_named(...).current_primary()")

    @property
    def trace(self) -> Tracer:
        return self.sim.trace
