"""Multiple backups: the paper's first future-work item, implemented.

The ``multi_backup`` discipline of :data:`repro.baselines.DISCIPLINES`.

Design
------
One primary replicates every update to *k* backups.  A static **succession
list** (the backups' fabric addresses, in takeover order) is known to every
replica — the moral equivalent of the paper's name file carrying more than
one entry.

- The primary runs one heartbeat :class:`~repro.core.failure.PingManager`
  *per backup* and tracks registration acks per backup; a dead backup is
  dropped from the replication set without disturbing the others.
- Each backup pings the primary.  When the primary dies, the backup whose
  *effective rank* is zero promotes itself (name-file update, client
  activation, re-admission — the Section 4.4 sequence) and adopts the
  surviving backups: re-registers every object with them, transfers state
  snapshots, and starts heartbeats.
- A backup with a higher effective rank instead polls the name file until a
  new primary appears and re-attaches to it.  Effective rank is the
  backup's succession index minus the number of predecessors that have ever
  been published as primary — so chained primary failures walk down the
  succession line deterministically.

Limitations (documented, tested): a succession predecessor that dies as a
*backup* (never promoting) still occupies its rank, so the chain stalls if
the rank-0 backup is already dead when the primary fails; a full membership
protocol (e.g. the RTCAST service the paper cites) is out of scope.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.failure import PingManager
from repro.core.rtpb_protocol import (
    PingAckMsg,
    RegisterAckMsg,
    RegisterMsg,
    UpdateMsg,
    encode_message,
)
from repro.core.server import ROLE_PRIMARY_WIRE, ReplicaServer, Role
from repro.core.spec import ObjectSpec
from repro.errors import ReplicationError


class MultiBackupServerError(ReplicationError):
    """Misconfiguration of a multi-backup deployment."""


class MultiBackupServer(ReplicaServer):
    """A replica aware of a whole succession of backups."""

    max_backups = None

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        if not self.succession:
            raise MultiBackupServerError("succession list must be non-empty")
        #: Backups this server currently replicates to (primary role).
        self.backup_addresses: List[int] = []
        if self.role is Role.PRIMARY:
            self.backup_addresses = list(self.succession)
            # The base class gates registration replication on having a
            # peer; point it at the first backup (fan-out happens in our
            # _send_to_peer / _replicate_registration overrides).
            self.peer_address = self.backup_addresses[0]
        self._acked_by_backup: Dict[int, Set[int]] = {}
        self._backup_pings: Dict[int, PingManager] = {}
        self._reattach_pending = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self.role is Role.PRIMARY:
            self.name_service.publish(self.service_name, self.host.address)
            self.transmitter.start()
            for address in self.backup_addresses:
                self._start_ping_to(address)
        elif self.role is Role.BACKUP:
            if self.peer_address is not None:
                self.ping.start()
            self._start_watchdog()

    def crash(self) -> None:
        for manager in self._backup_pings.values():
            manager.stop()
        super().crash()

    # ------------------------------------------------------------------
    # Fan-out replication
    # ------------------------------------------------------------------

    def _send_to_peer(self, data: bytes) -> None:
        """Primary: broadcast to every live backup.  Backup: to the primary."""
        if not self.alive:
            return
        if self.role is Role.PRIMARY:
            for address in self.backup_addresses:
                self.endpoint.send(address, self.port, data)
        else:
            super()._send_to_peer(data)

    def _replicate_registration(self, spec: ObjectSpec,
                                update_period: float, attempt: int = 0) -> None:
        # Per-backup retry loops with per-backup ack tracking.
        for address in list(self.backup_addresses):
            self._replicate_to(address, spec, update_period, 0)

    def _replicate_to(self, address: int, spec: ObjectSpec,
                      update_period: float, attempt: int) -> None:
        if not self.alive or address not in self.backup_addresses:
            return
        if spec.object_id in self._acked_by_backup.get(address, set()):
            return
        if attempt >= self.config.registration_max_retries:
            self.sim.trace.record("registration_gave_up",
                                  object=spec.object_id, backup=address)
            return
        self.endpoint.send(address, self.port, encode_message(RegisterMsg(
            object_id=spec.object_id, size_bytes=spec.size_bytes,
            client_period=spec.client_period,
            delta_primary=spec.delta_primary,
            delta_backup=spec.delta_backup,
            update_period=update_period)))
        self.sim.schedule(self.config.registration_retry_period,
                          self._replicate_to, address, spec, update_period,
                          attempt + 1)

    def _handle_register_ack(self, message: RegisterAckMsg,
                             source_address: int) -> None:
        super()._handle_register_ack(message, source_address)
        if message.accepted:
            self._acked_by_backup.setdefault(source_address, set()).add(
                message.object_id)

    # ------------------------------------------------------------------
    # Per-backup heartbeats (primary side)
    # ------------------------------------------------------------------

    def _start_ping_to(self, address: int) -> None:
        if address in self._backup_pings:
            return
        manager = PingManager(
            self.sim, self.config, role=ROLE_PRIMARY_WIRE,
            send=lambda data, a=address: self.endpoint.send(a, self.port,
                                                            data),
            on_peer_dead=lambda a=address: self._backup_dead(a),
            name=f"{self.name}->b{address}")
        self._backup_pings[address] = manager
        manager.start()

    def _backup_dead(self, address: int) -> None:
        """Drop one dead backup; replication to the rest continues."""
        if not self.alive or self.role is not Role.PRIMARY:
            return
        self.sim.trace.record("backup_lost", server=self.name,
                              backup=address)
        if address in self.backup_addresses:
            self.backup_addresses.remove(address)
        manager = self._backup_pings.pop(address, None)
        if manager is not None:
            manager.stop()
        if not self.backup_addresses:
            # Out of backups entirely: same posture as the base protocol.
            self.transmitter.stop()

    def _handle_ping_ack(self, message: PingAckMsg,
                         source_address: int) -> None:
        """A primary runs one heartbeat per backup: the ack goes to the
        manager watching its sender."""
        if self.role is not Role.PRIMARY or not self._backup_pings:
            super()._handle_ping_ack(message, source_address)
            return
        manager = self._backup_pings.get(source_address)
        if manager is not None:
            manager.handle_ack(message)

    # ------------------------------------------------------------------
    # Failover (backup side)
    # ------------------------------------------------------------------

    def _effective_rank(self) -> int:
        """Succession index minus predecessors that ever became primary."""
        my_index = self.succession.index(self.host.address)
        promoted = {address for _time, name, address
                    in self.name_service.changes
                    if name == self.service_name}
        return my_index - sum(1 for address in self.succession[:my_index]
                              if address in promoted)

    def _peer_dead(self) -> None:
        if not self.alive:
            return
        if self.role is Role.PRIMARY:
            # Handled per-backup by _backup_dead; the base single-peer path
            # is unused in the primary role.
            return
        if self.role is not Role.BACKUP or not self.config.failover_enabled:
            return
        # Someone may already have taken over while our detector was still
        # counting misses (all backups share the crash instant): if the name
        # file no longer points at our dead peer, follow it instead of
        # promoting a second primary.
        current = self.name_service.peek(self.service_name)
        if current is not None and current != self.peer_address:
            self._reattach_pending = True
            self._try_reattach()
            return
        if self._effective_rank() == 0:
            self.promote()
        else:
            self.sim.trace.record("awaiting_new_primary",
                                  server=self.name,
                                  rank=self._effective_rank())
            self._reattach_pending = True
            self._try_reattach()

    def _try_reattach(self) -> None:
        """Poll the name file until a new primary appears, then re-attach."""
        if not self.alive or not self._reattach_pending:
            return
        old_primary = self.peer_address
        current = self.name_service.peek(self.service_name)
        if current is not None and current != old_primary \
                and current != self.host.address:
            self._reattach_pending = False
            self.peer_address = current
            self.sim.trace.record("reattached", server=self.name,
                                  primary=current)
            self.ping.stop()
            self.ping.start()
            return
        self.sim.schedule(self.config.ping_period, self._try_reattach)

    def _adopt_backups(self) -> None:
        """Adopt the rest of the succession: registrations, state,
        heartbeats."""
        self.backup_addresses = [address for address in self.succession
                                 if address != self.host.address]
        if self.backup_addresses:
            self.peer_address = self.backup_addresses[0]
        self.transmitter.start()
        for record in self.store:
            period = record.update_period
            if period is None:
                period = self.config.update_period(record.spec)
            self.transmitter.add_object(record.spec.object_id, period)
            self._replicate_registration(record.spec, period)
            seq, write_time, source_time, value = self.store.snapshot(
                record.spec.object_id)
            if seq > 0:
                self._send_to_peer(encode_message(UpdateMsg(
                    object_id=record.spec.object_id, seq=seq,
                    write_time=write_time, source_time=source_time,
                    payload=value, snapshot=True)))
        for address in self.backup_addresses:
            self._start_ping_to(address)
