"""The elastic control plane: autoscaler + shedder + migration waves.

:class:`ElasticController` is the piece that turns the
:class:`~repro.elastic.autoscaler.Autoscaler`'s directional signals into
actual cluster reconfiguration:

- **scale-out** — recruit a fresh host (below ``max_hosts``), grow the
  cluster by one group (:meth:`ClusterService.add_group` — regrowing the
  rendezvous map so objects only ever move *into* the new shard), then
  launch a *migration wave*: one :class:`ShardMigration` per source group
  whose objects the grown map now assigns to the new shard.  If placement
  parks the new group (over capacity), the wave is deferred until the
  manager sweep — typically unblocked by the shedder widening windows —
  manages to place it.
- **scale-in** — pick the highest-gid active group, migrate its objects
  to the owners under the one-smaller rendezvous map, and retire it for
  good once (and only if) every migration committed.
- **rolling decommission** — hosts marked draining
  (:meth:`ClusterService.mark_draining`, e.g. by the ``drain_host`` fault
  action) are evacuated one seat per tick: replicas and backups are
  simply crashed (the sweep recruits replacements on non-draining
  hosts); a primary is only crashed while its group has a live backup to
  fail over to — and never while a migration holds the group's token.

A wave holds the reconfiguration token of *every* involved group for its
whole duration (:meth:`PlacementEngine.claim` under one owner label), so
the manager sweep's re-placement pass and concurrent waves cannot
double-place a group mid-migration; individual migrations run with
``manage_claims=False`` and the controller releases everything when the
last one lands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.cluster.shardmap import ShardMap
from repro.core.server import Role
from repro.errors import ReplicationError

from repro.elastic.autoscaler import Autoscaler
from repro.elastic.migration import COMMITTED, ShardMigration
from repro.elastic.shedding import OverloadShedder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.placement import HostSlot
    from repro.cluster.service import ClusterService, ShardGroup
    from repro.workload.elastic import ElasticScenario


@dataclass
class _Wave:
    """One in-flight reconfiguration wave and the tokens it holds."""

    kind: str
    owner: str
    claimed: List[int]
    pending: int = 0
    victim: Optional["ShardGroup"] = None
    new_map: Optional[ShardMap] = None
    migrations: List[ShardMigration] = field(default_factory=list)


class ElasticController:
    """Ties autoscaling, shedding, migration and draining together."""

    def __init__(self, cluster: "ClusterService",
                 scenario: "ElasticScenario",
                 on_group_added: Optional[
                     Callable[["ShardGroup"], None]] = None) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.scenario = scenario
        self.on_group_added = on_group_added
        self.autoscaler = Autoscaler(
            cluster, scenario,
            scale_out=self._scale_out, scale_in=self._scale_in)
        self.shedder: Optional[OverloadShedder] = None
        if scenario.shed_enabled:
            self.shedder = OverloadShedder(cluster, scenario)
        #: Every migration this controller launched, in launch order.
        self.migrations: List[ShardMigration] = []
        self.migrations_committed = 0
        self.migrations_aborted = 0
        self.hosts_added = 0
        self.scale_outs = 0
        self.scale_ins = 0
        self._wave: Optional[_Wave] = None
        #: A scale-out group placement parked (over capacity): its wave
        #: launches as soon as the sweep manages to place it.
        self._pending_scaleout: Optional["ShardGroup"] = None
        self._running = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.autoscaler.start()
        if self.shedder is not None:
            self.shedder.start()
        self.sim.schedule(self.scenario.autoscale_period, self._tick)

    def stop(self) -> None:
        self._running = False
        self.autoscaler.stop()
        if self.shedder is not None:
            self.shedder.stop()

    def summary(self) -> Dict[str, Any]:
        """JSON-safe rollup of every elastic action this run took."""
        return {
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "hosts_added": self.hosts_added,
            "migrations_committed": self.migrations_committed,
            "migrations_aborted": self.migrations_aborted,
            "autoscale_actions": len(self.autoscaler.actions),
            "window_degradations": (self.shedder.degradations
                                    if self.shedder is not None else 0),
            "window_restorations": (self.shedder.restorations
                                    if self.shedder is not None else 0),
        }

    # ------------------------------------------------------------------
    # Controller tick: draining progress + deferred wave launch
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        self._drain_step()
        pending = self._pending_scaleout
        if (pending is not None and self._wave is None
                and not pending.parked and pending.live_members()):
            self._pending_scaleout = None
            self._launch_scaleout_wave(pending)
        self.sim.schedule(self.scenario.autoscale_period, self._tick)

    # ------------------------------------------------------------------
    # Scale out
    # ------------------------------------------------------------------

    def _active_groups(self) -> List["ShardGroup"]:
        return [group for group in self.cluster.groups
                if not group.retired_for_good]

    def _scale_out(self, reason: str) -> None:
        if self._wave is not None or self._pending_scaleout is not None:
            return
        scenario = self.scenario
        if (scenario.max_hosts > 0
                and len(self.cluster.slots) < scenario.max_hosts):
            self.cluster.add_host()
            self.hosts_added += 1
        if (scenario.max_groups > 0
                and len(self._active_groups()) < scenario.max_groups):
            group = self.cluster.add_group()
            self.scale_outs += 1
            if self.on_group_added is not None:
                self.on_group_added(group)
            if group.parked or not group.live_members():
                self._pending_scaleout = group
                return
            self._launch_scaleout_wave(group)
            return
        # At the group ceiling (or growth disabled): standing pressure may
        # mean an earlier redistribution was interrupted (an aborted wave
        # left objects in groups the current map no longer assigns them
        # to) — retry the catch-up migration instead of growing.
        for group in self._active_groups():
            if group.parked or not group.live_members():
                continue
            self._launch_scaleout_wave(group)
            if self._wave is not None:
                return

    def _launch_scaleout_wave(self, group: "ShardGroup") -> None:
        moves: List[tuple["ShardGroup", List[int]]] = []
        for source in self._active_groups():
            if source is group:
                continue
            moving = [spec.object_id for spec in source.registered_specs()
                      if self.cluster.shard_map.shard_of(spec.name)
                      == group.gid]
            if moving:
                moves.append((source, moving))
        if not moves:
            return
        owner = f"elastic:scaleout:g{group.gid:02d}"
        wave = _Wave(kind="scale_out", owner=owner, claimed=[])
        if not self._claim_all(
                wave, [group.gid] + [source.gid for source, _ in moves]):
            return
        self._wave = wave
        for source, moving in moves:
            self._launch_migration(wave, source, group, moving)
        if wave.pending == 0:
            self._finish_wave(wave)

    # ------------------------------------------------------------------
    # Scale in
    # ------------------------------------------------------------------

    def _scale_in(self, reason: str) -> None:
        if self._wave is not None or self._pending_scaleout is not None:
            return
        active = self._active_groups()
        if len(active) <= max(1, self.scenario.min_groups):
            return
        victim = active[-1]
        if victim.parked or not victim.live_members():
            return
        try:
            victim.current_primary()
        except ReplicationError:
            return
        new_map = ShardMap(len(active) - 1,
                           salt=self.cluster.service_name)
        moves: Dict[int, List[int]] = {}
        for spec in victim.registered_specs():
            moves.setdefault(new_map.shard_of(spec.name),
                             []).append(spec.object_id)
        if not victim.registered_specs():
            # Nothing to move: retire directly and shrink the map.
            self.cluster.retire_group(victim)
            self.cluster.shard_map = new_map
            self.cluster.placement.shard_map = new_map
            self.scale_ins += 1
            return
        owner = f"elastic:scalein:g{victim.gid:02d}"
        wave = _Wave(kind="scale_in", owner=owner, claimed=[],
                     victim=victim, new_map=new_map)
        if not self._claim_all(wave, [victim.gid] + sorted(moves)):
            return
        self._wave = wave
        self.scale_ins += 1
        for dest_gid in sorted(moves):
            dest = self.cluster.groups[dest_gid]
            if dest.parked or not dest.live_members():
                continue  # this batch stays put; the victim is kept
            self._launch_migration(wave, victim, dest, moves[dest_gid])
        if wave.pending == 0:
            self._finish_wave(wave)

    # ------------------------------------------------------------------
    # Wave plumbing
    # ------------------------------------------------------------------

    def _claim_all(self, wave: _Wave, gids: List[int]) -> bool:
        placement = self.cluster.placement
        for gid in gids:
            if not placement.claim(gid, wave.owner):
                for claimed in wave.claimed:
                    placement.release_claim(claimed, wave.owner)
                return False
            wave.claimed.append(gid)
        return True

    def _launch_migration(self, wave: _Wave, source: "ShardGroup",
                          dest: "ShardGroup",
                          object_ids: List[int]) -> None:
        scenario = self.scenario
        migration = ShardMigration(
            self.cluster, source, dest, object_ids,
            tail_delay=scenario.migration_tail,
            barrier_poll=scenario.barrier_poll,
            barrier_timeout=scenario.barrier_timeout,
            owner=wave.owner, manage_claims=False,
            on_done=self._migration_done)
        self.migrations.append(migration)
        wave.migrations.append(migration)
        wave.pending += 1
        migration.start()

    def _migration_done(self, migration: ShardMigration) -> None:
        if migration.state == COMMITTED:
            self.migrations_committed += 1
        else:
            self.migrations_aborted += 1
        wave = self._wave
        if wave is None or migration not in wave.migrations:
            return
        wave.pending -= 1
        if wave.pending == 0:
            self._finish_wave(wave)

    def _finish_wave(self, wave: _Wave) -> None:
        placement = self.cluster.placement
        for gid in wave.claimed:
            placement.release_claim(gid, wave.owner)
        wave.claimed = []
        if (wave.kind == "scale_in" and wave.victim is not None
                and wave.new_map is not None
                and not wave.victim.registered_specs()
                and wave.victim.live_members()):
            self.cluster.retire_group(wave.victim)
            self.cluster.shard_map = wave.new_map
            self.cluster.placement.shard_map = wave.new_map
        if self._wave is wave:
            self._wave = None

    # ------------------------------------------------------------------
    # Rolling decommission
    # ------------------------------------------------------------------

    def _drain_step(self) -> None:
        for address in sorted(self.cluster.slots):
            slot = self.cluster.slots[address]
            if slot.draining and slot.alive:
                self._evacuate_one(slot)

    def _evacuate_one(self, slot: "HostSlot") -> None:
        """Move one seat off a draining host per tick, gently.

        Replicas and standbys are crashed outright — the manager sweep
        recruits replacements, and placement no longer offers draining
        hosts.  A primary is only crashed while its group has a live
        backup (clean failover) and no migration holds its token.
        """
        address = slot.address
        for group in self.cluster.groups:
            for replica in group.replicas:
                if replica.alive and replica.host.address == address:
                    replica.crash()
                    return
        for group in self.cluster.groups:
            if self.cluster.placement.owner_of(group.gid) is not None:
                continue
            for member in group.members:
                if not member.alive or member.host.address != address:
                    continue
                if member.role in (Role.BACKUP, Role.SPARE):
                    member.crash()
                    return
                if (member.role is Role.PRIMARY
                        and group.current_backup() is not None):
                    member.crash()
                    return
