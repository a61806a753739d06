"""Multiple backups: the paper's first future-work item, implemented.

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

from typing import Dict, List, Optional, Set

from repro.core.client import SensorClient
from repro.core.failure import CrashInjector, PingManager
from repro.core.name_service import NameService
from repro.core.rtpb_protocol import (
    RTPB_PORT,
    RegisterAckMsg,
    RegisterMsg,
    UpdateMsg,
    encode_message,
)
from repro.core.server import ROLE_PRIMARY_WIRE, ReplicaServer, Role
from repro.sched.processor import Processor
from repro.core.spec import ObjectSpec, ServiceConfig
from repro.errors import ReplicationError
from repro.net.ip import Host
from repro.net.link import LossModel, NetworkFabric
from repro.sim.engine import Simulator
from repro.workload.environment import EnvironmentModel


class MultiBackupServerError(ReplicationError):
    """Misconfiguration of a multi-backup deployment."""


class MultiBackupServer(ReplicaServer):
    """A replica aware of a whole succession of backups."""

    def __init__(self, sim: Simulator, host: Host, config: ServiceConfig,
                 name_service: NameService, role: Role,
                 succession: List[int], service_name: str = "rtpb",
                 peer_address: Optional[int] = None,
                 port: int = RTPB_PORT,
                 processor: Optional[Processor] = None,
                 owns_host: bool = True,
                 name: Optional[str] = None) -> None:
        super().__init__(sim, host, config, name_service, role,
                         service_name=service_name, peer_address=peer_address,
                         port=port, processor=processor, owns_host=owns_host,
                         name=name)
        if not succession:
            raise MultiBackupServerError("succession list must be non-empty")
        #: Backup addresses in takeover order (same list on every replica).
        self.succession = list(succession)
        #: Backups this server currently replicates to (primary role).
        self.backup_addresses: List[int] = []
        if role is Role.PRIMARY:
            self.backup_addresses = list(succession)
        self._acked_by_backup: Dict[int, Set[int]] = {}
        self._backup_pings: Dict[int, PingManager] = {}
        self._reattach_pending = False
        if role is Role.PRIMARY and self.backup_addresses:
            # The base class gates registration replication on having a
            # peer; point it at the first backup (fan-out happens in our
            # _send_to_peer / _replicate_registration overrides).
            self.peer_address = self.backup_addresses[0]

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

    def handle_ping_ack_from(self, address: int, ack) -> None:
        manager = self._backup_pings.get(address)
        if manager is not None:
            manager.handle_ack(ack)

    def _on_datagram(self, data: bytes, source: tuple, info: dict) -> None:
        # Route ping acks to the per-backup manager when we are primary.
        if self.alive and self.role is Role.PRIMARY and self._backup_pings:
            from repro.core.rtpb_protocol import PingAckMsg, decode_message

            try:
                message = decode_message(data)
            except Exception:
                message = None
            if isinstance(message, PingAckMsg):
                self.handle_ping_ack_from(source[0], message)
                return
        super()._on_datagram(data, source, info)

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

    def promote(self) -> None:
        """Take over as primary and adopt the surviving backups."""
        if self.role is not Role.BACKUP or not self.alive:
            return
        self.sim.trace.record("failover", new_primary=self.name)
        self.role = Role.PRIMARY
        self.ping.stop()
        self._watchdog_running = False
        self.peer_address = None
        self.name_service.publish(self.service_name, self.host.address)
        self.backup_addresses = [address for address in self.succession
                                 if address != self.host.address]
        if self.backup_addresses:
            self.peer_address = self.backup_addresses[0]
        for record in self.store:
            decision = self.admission.admit(record.spec)
            if decision.accepted:
                record.update_period = decision.update_period
        if self.local_client is not None:
            self.local_client.activate(self)
        # Adopt the surviving backups: registrations, state, heartbeats.
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


class MultiBackupService:
    """A deployment with one primary and *k* backups in succession order."""

    PRIMARY_ADDRESS = 1
    FIRST_BACKUP_ADDRESS = 2

    def __init__(self, n_backups: int = 2,
                 config: Optional[ServiceConfig] = None, seed: int = 0,
                 loss_model: Optional[LossModel] = None,
                 service_name: str = "rtpb") -> None:
        if n_backups < 1:
            raise MultiBackupServerError(
                f"need at least one backup, got {n_backups}")
        self.config = config if config is not None else ServiceConfig()
        self.service_name = service_name
        self.sim = Simulator(seed=seed)
        self.fabric = NetworkFabric(
            self.sim, delay_bound=self.config.ell,
            delay_min=self.config.link_delay_min, loss_model=loss_model)
        self.name_service = NameService(self.sim)
        self.environment = EnvironmentModel(seed=seed)
        self.injector = CrashInjector(self.sim)

        succession = [self.FIRST_BACKUP_ADDRESS + index
                      for index in range(n_backups)]
        self.primary_host = Host(self.sim, self.fabric, "primary",
                                 self.PRIMARY_ADDRESS)
        self.primary_server = MultiBackupServer(
            self.sim, self.primary_host, self.config, self.name_service,
            role=Role.PRIMARY, succession=succession,
            service_name=service_name)
        self.backup_servers: List[MultiBackupServer] = []
        self.servers: Dict[int, MultiBackupServer] = {
            self.PRIMARY_ADDRESS: self.primary_server}
        for index, address in enumerate(succession):
            host = Host(self.sim, self.fabric, f"backup{index}", address)
            server = MultiBackupServer(
                self.sim, host, self.config, self.name_service,
                role=Role.BACKUP, succession=succession,
                service_name=service_name,
                peer_address=self.PRIMARY_ADDRESS)
            self.backup_servers.append(server)
            self.servers[address] = server

        self.clients: List[SensorClient] = []
        self._registered: List[ObjectSpec] = []
        self._started = False

    # -- configuration ----------------------------------------------------

    def register(self, spec: ObjectSpec):
        decision = self.current_primary().register_object(spec)
        if decision.accepted:
            self._registered.append(spec)
        return decision

    def register_all(self, specs):
        return [self.register(spec) for spec in specs]

    def registered_specs(self) -> List[ObjectSpec]:
        return list(self._registered)

    def create_client(self, specs, name: str = "client",
                      write_jitter: float = 0.0) -> SensorClient:
        client = SensorClient(
            self.sim, self.environment, self.name_service, self.service_name,
            resolver=self.resolve_server, specs=specs, name=name,
            write_jitter=write_jitter)
        self.clients.append(client)
        for server in self.servers.values():
            server.local_client = client
        return client

    # -- execution ----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for server in self.servers.values():
            server.start()
        for client in self.clients:
            client.start()

    def run(self, horizon: float) -> None:
        self.start()
        self.sim.run(until=horizon)

    # -- introspection --------------------------------------------------------

    def resolve_server(self, address: int) -> Optional[MultiBackupServer]:
        return self.servers.get(address)

    def current_primary(self) -> MultiBackupServer:
        for server in self.servers.values():
            if server.alive and server.role is Role.PRIMARY:
                return server
        raise ReplicationError("no live primary in the deployment")

    def current_backup(self) -> Optional[MultiBackupServer]:
        backups = self.current_backups()
        return backups[0] if backups else None

    def current_backups(self) -> List[MultiBackupServer]:
        return [server for server in self.backup_servers
                if server.alive and server.role is Role.BACKUP]

    @property
    def trace(self):
        return self.sim.trace
