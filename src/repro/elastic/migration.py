"""Live shard migration: freeze → transfer → barrier → republish.

A :class:`ShardMigration` moves a set of objects from one live replication
group to another *while client traffic keeps flowing to every other
object*, preserving each moved object's temporal window:

1. **freeze** — the source group's client stops sensing the moving
   objects (their sensing loops are invalidated before the next write can
   be issued).  A short *tail delay* then lets write RPCs issued before
   the freeze drain through the source primary's CPU queue.
2. **transfer** — the destination pair's host budgets are charged
   atomically (:meth:`PlacementEngine.charge_objects`; a refusal aborts
   the migration with the rejection's QoS feedback), the objects are
   registered at the destination primary, and the source primary's
   current snapshot of each object is injected as an ordinary client
   write carrying the *original* source timestamp — so replication to the
   destination backup rides the real update stream, not a side channel.
3. **barrier** — the explicit reconfiguration barrier: the migration
   polls until the destination *backup* holds every moved object at a
   source timestamp at or beyond the frozen snapshot (the paper's
   ``W_B(t) ≥ W_P(freeze)`` at the new pair).  Only then may the source
   copies be dropped — republishing earlier could lose the window if the
   destination primary died immediately after the hand-off.
4. **commit / republish** — ownership moves: specs transfer between the
   group records, the source pair drops the objects (transmission tasks,
   admission charges, store records), the source hosts' placement charges
   are refunded, and the destination client begins sensing — the unfreeze.

Any failure along the way (budget refusal, either pair losing its
primary, barrier timeout) **aborts**: destination-side registrations and
charges are unwound and the source client resumes sensing the still-
registered source copies.  Either way the group's reconfiguration tokens
(:meth:`PlacementEngine.claim`) serialise the migration against the
manager sweep's re-placement pass.

:class:`MigrationWindowInvariant` is the online checker for all of the
above: no *new* sample may enter the system for a frozen object, every
commit must be preceded by its barrier, and the committed destination
spec must carry the source's exact window.

Trace categories: ``migration_freeze``, ``migration_transfer``,
``migration_barrier``, ``migration_commit``, ``migration_abort``,
``invariant_violation``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.core.client import SensorClient
from repro.core.spec import ObjectSpec
from repro.errors import ClusterError, ReplicationError
from repro.faults.monitor import TraceMonitor, migrating_ids
from repro.sim.trace import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.service import ClusterService, ShardGroup

_EPSILON = 1e-9

#: Migration life-cycle states (:attr:`ShardMigration.state`).
IDLE = "idle"
FROZEN = "frozen"
TRANSFERRED = "transferred"
COMMITTED = "committed"
ABORTED = "aborted"

#: Invariant kinds emitted by :class:`MigrationWindowInvariant`; the run's
#: ``migration_violations`` count is of kinds with this ``migration_`` prefix.
MIGRATION_LEAKED_WRITE = "migration_leaked_write"
MIGRATION_MISSING_BARRIER = "migration_missing_barrier"
MIGRATION_WINDOW_CHANGED = "migration_window_changed"


def _join_ids(object_ids: List[int]) -> str:
    return ",".join(str(object_id) for object_id in object_ids)


class ShardMigration:
    """One traced freeze→transfer→republish hand-off between two groups."""

    def __init__(self, cluster: "ClusterService",
                 source: "ShardGroup", dest: "ShardGroup",
                 object_ids: List[int], *,
                 tail_delay: float = 0.05,
                 barrier_poll: float = 0.01,
                 barrier_timeout: float = 1.0,
                 owner: Optional[str] = None,
                 manage_claims: bool = True,
                 on_done: Optional[Callable[["ShardMigration"], None]] = None
                 ) -> None:
        if source is dest:
            raise ClusterError("cannot migrate a group onto itself")
        self.cluster = cluster
        self.sim = cluster.sim
        self.source = source
        self.dest = dest
        self.object_ids = sorted(object_ids)
        self.tail_delay = tail_delay
        self.barrier_poll = barrier_poll
        self.barrier_timeout = barrier_timeout
        self.owner = (owner if owner is not None
                      else f"migration:{source.name}->{dest.name}")
        #: False when an orchestrator (the elastic controller's wave) holds
        #: the reconfiguration tokens for this migration; True standalone.
        self.manage_claims = manage_claims
        self.on_done = on_done
        self.state = IDLE
        #: Why the migration aborted (None otherwise).
        self.abort_reason: Optional[str] = None
        self.frozen_specs: List[ObjectSpec] = []
        self.freeze_time = 0.0
        #: Source timestamp floor per object at snapshot time; objects the
        #: source never wrote are absent (registration-only barrier).
        self.floors: Dict[int, float] = {}
        self._charged = False
        self._barrier_deadline = 0.0

    # ------------------------------------------------------------------

    def start(self) -> bool:
        """Claim both groups and freeze; False when a token is refused."""
        if self.state != IDLE:
            raise ClusterError(f"migration already {self.state}")
        placement = self.cluster.placement
        if self.manage_claims:
            if not placement.claim(self.source.gid, self.owner):
                return False
            if not placement.claim(self.dest.gid, self.owner):
                placement.release_claim(self.source.gid, self.owner)
                return False
        moving = set(self.object_ids)
        self.frozen_specs = [spec for spec in self.source.registered_specs()
                             if spec.object_id in moving]
        self.freeze_time = self.sim.now
        if self.source.client is not None:
            self.source.client.remove_objects(self.object_ids)
        # Also stop the source primary's periodic transmission of the
        # frozen objects: their W_P no longer advances, and the host-level
        # transmission tasks are named per object id — if the destination
        # pair lands on the source primary's host, both sides registering
        # the same object would collide on the shared processor.
        try:
            source_primary = self.source.current_primary()
        except ReplicationError:
            source_primary = None
        if source_primary is not None:
            for object_id in self.object_ids:
                source_primary.transmitter.remove_object(object_id)
        self.state = FROZEN
        self.sim.trace.record(
            "migration_freeze", source=self.source.name, dest=self.dest.name,
            objects=len(self.frozen_specs), ids=_join_ids(self.object_ids))
        self.sim.schedule(self.tail_delay, self._transfer)
        return True

    # ------------------------------------------------------------------

    def _transfer(self) -> None:
        if self.state != FROZEN:
            return
        try:
            source_primary = self.source.current_primary()
        except ReplicationError:
            self._abort("source_primary_lost")
            return
        try:
            dest_primary = self.dest.current_primary()
        except ReplicationError:
            self._abort("dest_primary_lost")
            return
        if not self.frozen_specs:
            # Nothing was actually registered at the source: an empty
            # hand-off commits trivially (the ids were already elsewhere).
            self._commit()
            return
        addresses = sorted(member.host.address
                           for member in self.dest.live_members())
        rejection = self.cluster.placement.charge_objects(
            self.dest.gid, addresses, self.frozen_specs, now=self.sim.now)
        if rejection is not None:
            self._abort(f"dest_budget:{rejection.reason}")
            return
        self._charged = True
        for spec in self.frozen_specs:
            # A previous aborted attempt may have left ghost state here: its
            # abort-time drop races the in-flight REGISTER replication, and
            # a backup that applied the replay after the drop carries the
            # object into a later promotion.  Dropping is idempotent.
            if spec.object_id in dest_primary.store:
                dest_primary.drop_object(spec.object_id)
            decision = dest_primary.register_object(spec)
            if not decision.accepted:
                self._abort(f"dest_admission:{decision.reason}")
                return
            seq, _write_time, source_time, value = (
                source_primary.store.snapshot(spec.object_id))
            if seq > 0:
                self.floors[spec.object_id] = source_time
                if dest_primary.client_write(spec.object_id, value,
                                             source_time=source_time):
                    self.dest.snapshot_writes[spec.object_id] += 1
        self.state = TRANSFERRED
        self.sim.trace.record(
            "migration_transfer", source=self.source.name,
            dest=self.dest.name, objects=len(self.frozen_specs),
            snapshots=len(self.floors))
        self._barrier_deadline = self.sim.now + self.barrier_timeout
        self.sim.schedule(self.barrier_poll, self._poll_barrier)

    # ------------------------------------------------------------------

    def _poll_barrier(self) -> None:
        if self.state != TRANSFERRED:
            return
        try:
            self.dest.current_primary()
        except ReplicationError:
            self._abort("dest_primary_lost")
            return
        backup = self.dest.current_backup()
        if backup is not None and self._barrier_reached(backup):
            self.sim.trace.record(
                "migration_barrier", source=self.source.name,
                dest=self.dest.name,
                wait=self.sim.now - self.freeze_time)
            self._commit()
            return
        if self.sim.now + _EPSILON >= self._barrier_deadline:
            self._abort("barrier_timeout")
            return
        self.sim.schedule(self.barrier_poll, self._poll_barrier)

    def _barrier_reached(self, backup: object) -> bool:
        """Last acked update at the destination backup ≥ freeze snapshot."""
        store = backup.store  # type: ignore[attr-defined]
        for spec in self.frozen_specs:
            if spec.object_id not in store:
                return False  # REGISTER not yet applied at the backup
            floor = self.floors.get(spec.object_id)
            if floor is None:
                continue  # the source never wrote it: registration suffices
            record = store.get(spec.object_id)
            if record.seq < 1 or record.source_time + _EPSILON < floor:
                return False
        return True

    # ------------------------------------------------------------------

    def _commit(self) -> None:
        moving = set(self.object_ids)
        self.source.specs = [spec for spec in self.source.specs
                             if spec.object_id not in moving]
        self.source._registered = [spec for spec in self.source._registered
                                   if spec.object_id not in moving]
        self.dest.specs.extend(self.frozen_specs)
        self.dest._registered.extend(self.frozen_specs)
        for member in self.source.members:
            for object_id in self.object_ids:
                member.drop_object(object_id)
        self.cluster.placement.release_objects(self.source.gid,
                                               self.object_ids)
        if self.frozen_specs:
            self._attach_dest_client()
        self.state = COMMITTED
        self.sim.trace.record(
            "migration_commit", source=self.source.name, dest=self.dest.name,
            objects=len(self.frozen_specs), ids=_join_ids(self.object_ids))
        self._finish()

    def _attach_dest_client(self) -> None:
        dest = self.dest
        if dest.client is None:
            client = SensorClient(
                self.sim, self.cluster.environment, self.cluster.name_service,
                dest.name, resolver=dest.server_at, specs=self.frozen_specs,
                name=f"{dest.name}.client",
                write_jitter=self.cluster.write_jitter)
            dest.clients.append(client)
            for member in dest.members:
                member.local_client = client
            client.start()
        else:
            dest.client.add_objects(self.frozen_specs)

    # ------------------------------------------------------------------

    def _abort(self, reason: str) -> None:
        if self.state in (COMMITTED, ABORTED):
            return
        for member in self.dest.members:
            for object_id in self.object_ids:
                member.drop_object(object_id)
        if self._charged:
            self.cluster.placement.release_objects(self.dest.gid,
                                                   self.object_ids)
        if self.source.client is not None:
            # Unfreeze: the source copies were never dropped, so sensing
            # simply resumes against the still-registered objects.
            self.source.client.add_objects(self.frozen_specs)
        # Resume the source primary's transmission of the unfrozen objects.
        # After a mid-freeze failover the promoted primary rebuilt its
        # transmitter from its store and already carries them (add_object
        # is a no-op for known objects).
        try:
            source_primary = self.source.current_primary()
        except ReplicationError:
            source_primary = None
        if source_primary is not None:
            for spec in self.frozen_specs:
                if spec.object_id in source_primary.store:
                    source_primary.transmitter.add_object(
                        spec.object_id,
                        source_primary.admission.update_period_of(
                            spec.object_id))
        self.state = ABORTED
        self.abort_reason = reason
        self.sim.trace.record(
            "migration_abort", source=self.source.name, dest=self.dest.name,
            reason=reason, ids=_join_ids(self.object_ids))
        self._finish()

    def _finish(self) -> None:
        if self.manage_claims:
            self.cluster.placement.release_claim(self.source.gid, self.owner)
            self.cluster.placement.release_claim(self.dest.gid, self.owner)
        if self.on_done is not None:
            self.on_done(self)


class MigrationWindowInvariant(TraceMonitor):
    """Online checker: migrations preserve windows and leak no samples.

    Subscribes to the cluster's trace (like the
    :class:`~repro.faults.monitor.InvariantMonitor`) and enforces, per
    migration:

    - **no leaked write** — between ``migration_freeze`` and the matching
      commit/abort, no ``primary_write`` for a frozen object may carry a
      source timestamp later than the freeze instant.  The snapshot
      injection replays the *frozen* timestamp, so it passes; a sensing
      loop that kept running would not.
    - **barrier before commit** — every ``migration_commit`` must be
      preceded by its ``migration_barrier``.
    - **window preserved** — the destination's registered spec for each
      moved object must carry the same δ = δ^B − δ^P as the source's did
      at freeze time.

    Violations are collected and traced the
    :class:`~repro.faults.monitor.TraceMonitor` way, so they reach the
    run's merged findings and the chaos report.
    """

    def __init__(self, cluster: "ClusterService") -> None:
        super().__init__(cluster.sim)
        self.cluster = cluster
        #: object id → freeze time, while frozen.
        self._frozen_at: Dict[int, float] = {}
        #: object id → window at freeze time.
        self._frozen_window: Dict[int, float] = {}
        #: (source, dest) pairs whose barrier has been observed.
        self._barrier_seen: Set[Tuple[str, str]] = set()

    def _on_record(self, record: TraceRecord) -> None:
        category = record.category
        if category == "primary_write":
            frozen_at = self._frozen_at.get(record["object"])
            if (frozen_at is not None
                    and record["source_time"] > frozen_at + _EPSILON):
                self._emit(MIGRATION_LEAKED_WRITE, object=record["object"],
                           source_time=record["source_time"],
                           frozen_at=frozen_at)
        elif category == "migration_freeze":
            source = self.cluster.group_named(record["source"])
            windows = {spec.object_id: spec.window
                       for spec in source.registered_specs()}
            for object_id in migrating_ids(record):
                self._frozen_at[object_id] = record.time
                if object_id in windows:
                    self._frozen_window[object_id] = windows[object_id]
        elif category == "migration_barrier":
            self._barrier_seen.add((record["source"], record["dest"]))
        elif category == "migration_commit":
            key = (record["source"], record["dest"])
            ids = migrating_ids(record)
            if any(object_id in self._frozen_window for object_id in ids) \
                    and key not in self._barrier_seen:
                self._emit(MIGRATION_MISSING_BARRIER, source=key[0],
                           dest=key[1])
            dest = self.cluster.group_named(record["dest"])
            dest_windows = {spec.object_id: spec.window
                            for spec in dest.registered_specs()}
            for object_id in ids:
                expected = self._frozen_window.get(object_id)
                actual = dest_windows.get(object_id)
                if (expected is not None and actual is not None
                        and abs(actual - expected) > _EPSILON):
                    self._emit(MIGRATION_WINDOW_CHANGED, object=object_id,
                               source_window=expected, dest_window=actual)
                self._unfreeze(object_id)
            self._barrier_seen.discard(key)
        elif category == "migration_abort":
            for object_id in migrating_ids(record):
                self._unfreeze(object_id)
            self._barrier_seen.discard((record["source"], record["dest"]))

    def _unfreeze(self, object_id: int) -> None:
        self._frozen_at.pop(object_id, None)
        self._frozen_window.pop(object_id, None)
