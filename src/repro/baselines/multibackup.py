"""Multiple backups: the paper's first future-work item, implemented.

The ``multi_backup`` discipline of :data:`repro.baselines.DISCIPLINES`.
One primary replicates every update to *k* backups.  A static **succession
list** (the backups' fabric addresses, in takeover order) is known to every
replica — the moral equivalent of the paper's name file carrying more than
one entry.  The protocol is the fan-out case of the one membership machine
(:mod:`repro.core.membership`): the primary drops dead backups one at a
time; the backup at effective rank zero promotes and adopts the survivors
(registrations, state snapshots, heartbeats); a backup of higher rank
polls the name file until a new primary appears and re-attaches to it.
Effective rank is the succession index minus the predecessors ever
published as primary, so chained failures walk down the line.  This module
keeps what is particular to the fan-out: one heartbeat per backup (traced
as ``{name}->b{address}``), per-backup registration tracking, the rank.

Limitations (documented, tested): a succession predecessor that dies as a
*backup* (never promoting) still occupies its rank, so the chain stalls if
the rank-0 backup is already dead when the primary fails; a full membership
protocol (e.g. the RTCAST service the paper cites) is out of scope.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.failure import PingManager
from repro.core.membership import ROLE_PRIMARY_WIRE, Effect, Role
from repro.core.rtpb_protocol import PingAckMsg, RegisterAckMsg
from repro.core.server import ReplicaServer
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
        self._acked_by_backup: Dict[int, Set[int]] = {}
        self._backup_pings: Dict[int, PingManager] = {}

    @property
    def backup_addresses(self) -> List[int]:
        """Backups this server currently replicates to (primary role)."""
        return list(self.membership.peer) if self.role is Role.PRIMARY else []

    # ------------------------------------------------------------------
    # Per-backup registration tracking
    # ------------------------------------------------------------------

    def _replicate_registration(self, spec: ObjectSpec,
                                update_period: float, attempt: int = 0) -> None:
        for address in self.backup_addresses:
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
        self.endpoint.send(address, self.port,
                           self._register_message(spec, update_period))
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
    # Per-backup heartbeats and the succession rank
    # ------------------------------------------------------------------

    def _carry_out(self, effect: Effect) -> None:
        match effect:
            case ("heartbeat", True, int(backup)):
                if backup not in self._backup_pings:
                    manager = PingManager(
                        self.sim, self.config, role=ROLE_PRIMARY_WIRE,
                        send=lambda data: self.endpoint.send(
                            backup, self.port, data),
                        on_peer_dead=lambda: self._step(
                            ("backup_lost", backup)),
                        name=f"{self.name}->b{backup}")
                    self._backup_pings[backup] = manager
                    manager.start()
            case ("heartbeat", False, int(backup)):
                self._backup_pings.pop(backup).stop()
            case _:
                while effect == ("halt",) and self._backup_pings:
                    self._backup_pings.popitem()[1].stop()
                super()._carry_out(effect)

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

    def _effective_rank(self) -> int:
        """Succession index (a spare recruited into the line ranks after
        it) minus predecessors that ever became primary."""
        line = self.succession
        my_index = (line.index(self.host.address)
                    if self.host.address in line else len(line))
        promoted = {address for _time, name, address
                    in self.name_service.changes
                    if name == self.service_name}
        return my_index - sum(1 for address in line[:my_index]
                              if address in promoted)

    def _peer_dead(self) -> None:
        self._step(("peer_timeout", self.name_service.peek(self.service_name),
                    self._effective_rank()))
