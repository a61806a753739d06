"""The replica server: primary and backup roles, failover, recruitment.

One class plays every role in the paper's deployment:

- **PRIMARY** — accepts client writes (Mach-IPC-style local RPC, costed on
  the CPU model), runs admission control, transmits decoupled updates to the
  backup, answers retransmission requests, pings the backup.
- **BACKUP** — applies incoming updates (costed on its own CPU), watches for
  silent objects and requests retransmissions, pings the primary, and on
  detecting primary death *promotes itself*: updates the name file, activates
  the local client application, and recruits a spare host as the new backup
  (Section 4.4).
- **SPARE** — waits for a ``RECRUIT`` message, then becomes the backup and
  is brought up to date through state-transfer snapshots.

Trace categories: ``client_response``, ``client_write_rejected``,
``primary_write``, ``backup_apply``, ``backup_apply_stale``, ``retx_request``,
``registration``, ``registration_replicated``, ``replication_degraded``,
``server_crash``, ``server_recover``, ``failover``, ``backup_lost``,
``recruited``.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.failure import PingManager
from repro.core.name_service import NameService
from repro.core.object_store import ObjectStore
from repro.core.rtpb_protocol import (
    RTPB_PORT,
    FreshnessBeaconMsg,
    PingAckMsg,
    PingMsg,
    RecruitAckMsg,
    RecruitMsg,
    RegisterAckMsg,
    RegisterMsg,
    ReplicaSubscribeMsg,
    RetxRequestMsg,
    UpdateAckMsg,
    UpdateMsg,
    decode_message,
    encode_message,
)
from repro.core.spec import InterObjectConstraint, ObjectSpec, ServiceConfig
from repro.core.update_scheduler import UpdateTransmitter
from repro.errors import (MessageFormatError, NoRouteError, NotPrimaryError,
                          ReplicationError)
from repro.net.ip import Host
from repro.sched.edf import EDFScheduler
from repro.sched.processor import Processor
from repro.sched.rm import RateMonotonicScheduler
from repro.sched.task import BAND_REALTIME
from repro.sim.engine import Simulator

ROLE_PRIMARY_WIRE = 0
ROLE_BACKUP_WIRE = 1


class Role(enum.Enum):
    PRIMARY = "primary"
    BACKUP = "backup"
    SPARE = "spare"


def build_processor(sim: Simulator, config: ServiceConfig,
                    name: str) -> Processor:
    """A CPU with the scheduler the configuration asks for (EDF or RM).

    Single-group services build one per server; the cluster facade builds
    one per *host* and shares it among the co-located replica servers.
    """
    scheduler = (EDFScheduler() if config.cpu_scheduler == "edf"
                 else RateMonotonicScheduler())
    return Processor(sim, scheduler, name=name)


class ReplicaServer:
    """One RTPB server instance on one host.

    By default a server owns its host (a crash takes the NIC down, the
    paper's single-group deployment).  A cluster facade co-locates several
    servers per host: those are constructed with ``owns_host=False`` (a
    crash is process death — the host and its other servers keep running),
    a per-group ``port``, a shared per-host ``processor``, and a distinct
    ``name`` so trace records stay unambiguous.

    A replication *discipline* is one subclass, run by every member of a
    group whatever its role (so a promoted backup keeps the discipline).
    The seam is three hooks — :meth:`_after_primary_write`,
    :meth:`_on_update_ack`, :meth:`_handle_retx_request` — plus the two
    declarations below.
    """

    #: Whether backups of this discipline acknowledge every applied update
    #: (the synchronous disciplines wait on those acks).
    #: ``ServiceConfig.ack_updates`` turns acks on for any discipline.
    ack_updates = False
    #: How many backups one group of this discipline replicates to
    #: (None = any number).
    max_backups: Optional[int] = 1

    def __init__(self, sim: Simulator, host: Host, config: ServiceConfig,
                 name_service: NameService, role: Role,
                 service_name: str = "rtpb",
                 peer_address: Optional[int] = None,
                 spare_addresses: Optional[List[int]] = None,
                 succession: Optional[List[int]] = None,
                 port: int = RTPB_PORT,
                 processor: Optional[Processor] = None,
                 owns_host: bool = True,
                 name: Optional[str] = None) -> None:
        self.sim = sim
        self.host = host
        self.config = config
        self.name_service = name_service
        self.role = role
        self.service_name = service_name
        self.peer_address = peer_address
        self.spare_addresses = list(spare_addresses or [])
        #: The group's backup addresses in takeover order (the same list on
        #: every member); the pair protocol itself only uses the peer.
        self.succession = list(succession or [])
        self.port = port
        self.owns_host = owns_host
        #: Trace/monitor identity; defaults to the host name, so single-group
        #: deployments keep their historical trace digests.
        self.name = name if name is not None else host.name
        self.alive = True
        self.decommissioned = False

        self.processor = (processor if processor is not None
                          else build_processor(sim, config,
                                               name=f"{host.name}.cpu"))
        self.deferrable_server = None
        if config.use_deferrable_server:
            from repro.sched.aperiodic import DeferrableServer

            self.deferrable_server = DeferrableServer(
                sim, self.processor, budget=config.ds_budget,
                period=config.ds_period, name=f"{host.name}.ds")
        self.store = ObjectStore()
        self.admission = AdmissionController(config)
        self.endpoint = host.udp_endpoint(self.port,
                                          on_receive=self._on_datagram)
        self._handlers = self._message_handlers()
        self.transmitter = UpdateTransmitter(
            sim, self.processor, self.store, config, send=self._send_update)
        wire_role = (ROLE_PRIMARY_WIRE if role is Role.PRIMARY
                     else ROLE_BACKUP_WIRE)
        self.ping = PingManager(
            sim, config, role=wire_role, send=self._send_to_peer,
            on_peer_dead=self._peer_dead, name=self.name)

        #: The client application co-located with this server; registered by
        #: the service facade so failover can activate the replica client.
        self.local_client: Optional["SensorClient"] = None

        # Counters / bookkeeping.
        self.writes_handled = 0
        self.updates_applied = 0
        self.updates_stale = 0
        self.retx_requests_sent = 0
        self.retx_requests_served = 0
        self._register_acked: Set[int] = set()
        #: Objects whose REGISTER replication exhausted its retries: the
        #: transmitter keeps sending updates the backup silently drops.
        #: Surfaced on the trace as ``replication_degraded`` (the
        #: InvariantMonitor collects them) and reprobed on a slow cadence
        #: until the backup finally admits the object.
        self.degraded_objects: Set[int] = set()
        self._last_update_at: Dict[int, float] = {}
        #: Read-replica fan-out (repro.replicas): subscriber address →
        #: last time we heard from it (subscribe or freshness beacon).
        #: Empty in every run without replicas, so the update stream — and
        #: with it every historical trace digest — is untouched.
        self.replica_subscribers: Dict[int, float] = {}
        #: Latest beaconed applied high-water timestamp per subscriber.
        self.replica_floors: Dict[int, float] = {}
        self._watchdog_running = False
        self._recruiting = False
        #: Local timer drift factor shared with the ping manager; the fault
        #: subsystem's clock-drift injector sets it via :meth:`set_clock_scale`.
        self._timer_scale = 1.0

    @classmethod
    def host_names(cls, n_backups: int) -> List[str]:
        """Host names of a standalone group, primary first.  They appear in
        trace records, so they are part of a discipline's pinned digests."""
        if n_backups == 1:
            return ["primary", "backup"]
        return ["primary"] + [f"backup{index}" for index in range(n_backups)]

    @classmethod
    def build_group(cls, sim: Simulator, config: ServiceConfig,
                    name_service: NameService, service_name: str,
                    primary: Host, backups: Sequence[Host],
                    spares: Sequence[Host] = (),
                    seat: Callable[[Host], Dict[str, Any]] = lambda host: {}
                    ) -> List["ReplicaServer"]:
        """The member factory: this discipline's server on every host of
        one group — the primary, the backups in succession order, the
        spares.

        ``seat(host)`` supplies the per-host constructor keywords of a
        co-located deployment (``port``, shared ``processor``,
        ``owns_host``, ``name``); a single-group deployment passes none.
        """
        if cls.max_backups is not None and len(backups) > cls.max_backups:
            raise ReplicationError(
                f"{cls.__name__} replicates to at most {cls.max_backups} "
                f"backup(s), got {len(backups)}")
        succession = [host.address for host in backups]
        spare_addresses = [host.address for host in spares]

        def member(host: Host, role: Role, **wiring: Any) -> "ReplicaServer":
            return cls(sim, host, config, name_service, role=role,
                       service_name=service_name, succession=succession,
                       **wiring, **seat(host))

        return ([member(primary, Role.PRIMARY, peer_address=succession[0],
                        spare_addresses=spare_addresses)]
                + [member(host, Role.BACKUP, peer_address=primary.address,
                          spare_addresses=spare_addresses)
                   for host in backups]
                + [member(host, Role.SPARE) for host in spares])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bring the server up in its configured role."""
        if self.role is Role.PRIMARY:
            self.name_service.publish(self.service_name, self.host.address)
            self.transmitter.start()
            if self.peer_address is not None:
                self.ping.start()
        elif self.role is Role.BACKUP:
            if self.peer_address is not None:
                self.ping.start()
            self._start_watchdog()
        # SPARE: passive until recruited.

    def crash(self) -> None:
        """Suffer a crash failure: stop everything (Section 4.1).

        When this server owns its host the NIC goes down with it; a
        co-located server (``owns_host=False``) dies as a process, leaving
        the host — and its neighbours — running.
        """
        if not self.alive:
            return
        self.alive = False
        if self.owns_host:
            self.host.fail()
        self.ping.stop()
        self.transmitter.stop()
        self._watchdog_running = False
        self.sim.trace.record("server_crash", server=self.name,
                              role=self.role.value)

    def recover(self) -> None:
        """Reboot after a crash and rejoin the group as a SPARE.

        Memory (the object store) survives — the host is a warm spare whose
        stale versions are refreshed by the recruitment state transfer; the
        sequence-number guard in :meth:`ObjectStore.apply_update` makes the
        refresh safe.  It cannot resume its old role: the name file may have
        moved while it was down, so it waits to be recruited (Section 4.4).
        """
        if self.alive or self.decommissioned:
            return
        self.alive = True
        if self.owns_host:
            self.host.recover()
        self.role = Role.SPARE
        self.peer_address = None
        self._recruiting = False
        self._register_acked.clear()
        self.degraded_objects.clear()
        self.replica_subscribers.clear()
        self.replica_floors.clear()
        self.sim.trace.record("server_recover", server=self.name)

    def decommission(self) -> None:
        """Retire this server instance for good: crash it if needed and
        release its UDP port so a replacement can bind the same (host, port).

        The cluster manager decommissions dead members before re-placing
        their group; a decommissioned server never recovers.
        """
        if self.decommissioned:
            return
        self.crash()
        self.decommissioned = True
        self.endpoint.close()

    def notice_spare(self, address: int) -> None:
        """Learn that a spare host is available at ``address``.

        A primary missing its backup restarts recruitment immediately —
        the earlier attempt may have given up while the spare was down.
        """
        if address != self.host.address and address not in self.spare_addresses:
            self.spare_addresses.append(address)
        if (self.role is Role.PRIMARY and self.alive
                and self.peer_address is None):
            self._recruiting = False
            self._recruit_backup()

    def set_clock_scale(self, scale: float) -> None:
        """Apply bounded clock drift to this replica's local timers.

        Scales the heartbeat and watchdog delays: ``scale > 1`` is a slow
        clock (late pings, late retransmission sweeps), ``scale < 1`` a fast
        one.  Client write periods and CPU costs are unaffected — drift
        models a skewed timer interrupt, not a slower machine.
        """
        if scale <= 0:
            raise ReplicationError(f"clock scale must be > 0: {scale}")
        self._timer_scale = scale
        self.ping.clock_scale = scale

    # ------------------------------------------------------------------
    # Client interface (Mach-IPC-style local RPC)
    # ------------------------------------------------------------------

    def client_write(self, object_id: int, value: bytes, source_time: float,
                     on_complete: Optional[Callable[[float], None]] = None
                     ) -> bool:
        """Handle one client write.

        The write is costed on this server's CPU (``rpc_cost``) and completes
        asynchronously; the response time reported to ``on_complete`` (and
        traced as ``client_response``) is queueing + service time, the metric
        of Figures 6-7.  Returns False (traced) when this server cannot
        accept writes.
        """
        if not self.alive or self.role is not Role.PRIMARY:
            self.sim.trace.record("client_write_rejected", object=object_id,
                                  server=self.name)
            return False
        if object_id not in self.store:
            raise ReplicationError(
                f"client write to unregistered object {object_id}")
        issue_time = self.sim.now

        def handle(_job: object) -> None:
            if not self.alive:
                return
            record = self.store.write(object_id, self.sim.now, value,
                                      source_time)
            self.writes_handled += 1
            self.sim.trace.record("primary_write", object=object_id,
                                  seq=record.seq, source_time=source_time)
            self._after_primary_write(record, issue_time, on_complete)

        self._submit_rpc(f"rpc-{object_id}", self.config.rpc_cost, handle)
        return True

    def _submit_rpc(self, name: str, cost: float, action) -> None:
        """Route one client RPC onto the CPU: through the deferrable-server
        reservation when configured, else the plain real-time band."""
        if self.deferrable_server is not None:
            self.deferrable_server.submit(name, cost, action=action)
        else:
            self.processor.submit(
                name=name, cost=cost,
                deadline=self.sim.now + self.config.rpc_deadline,
                band=BAND_REALTIME, action=action)

    def client_read(self, object_id: int,
                    on_complete: Optional[Callable[[bytes, float, float],
                                                   None]] = None) -> bool:
        """Handle one client read.

        Served by the primary, or by a backup when
        ``config.backup_reads_enabled`` — a backup answer is stale by at
        most the object's own δ^B, which is the registered contract.
        ``on_complete`` receives ``(value, staleness, response_time)`` where
        staleness is the age of the returned sample relative to the
        external world (now − source_time).  Returns False (traced) when
        this server cannot serve reads.
        """
        can_serve = self.alive and (
            self.role is Role.PRIMARY
            or (self.role is Role.BACKUP and self.config.backup_reads_enabled))
        if not can_serve:
            self.sim.trace.record("client_read_rejected", object=object_id,
                                  server=self.name)
            return False
        if object_id not in self.store:
            raise ReplicationError(
                f"client read of unregistered object {object_id}")
        issue_time = self.sim.now

        def handle(_job: object) -> None:
            if not self.alive:
                return
            record = self.store.get(object_id)
            staleness = (self.sim.now - record.source_time
                         if record.seq > 0 else float("inf"))
            response = self.sim.now - issue_time
            self.sim.trace.record("client_read", object=object_id,
                                  server=self.name, issue=issue_time,
                                  response=response, staleness=staleness)
            if on_complete is not None:
                on_complete(record.value, staleness, response)

        self._submit_rpc(f"read-{object_id}", self.config.rpc_read_cost,
                         handle)
        return True

    def _after_primary_write(self, record, issue_time: float,
                             on_complete: Optional[Callable[[float], None]]
                             ) -> None:
        """Finish a client write.  RTPB responds immediately (decoupling);
        baselines override this to couple transmission (window-consistent)
        or to defer the response until the backup acks (eager)."""
        response = self.sim.now - issue_time
        self.sim.trace.record("client_response", object=record.spec.object_id,
                              issue=issue_time, response=response)
        if on_complete is not None:
            on_complete(response)

    # ------------------------------------------------------------------
    # Registration (primary side)
    # ------------------------------------------------------------------

    def register_object(self, spec: ObjectSpec) -> AdmissionDecision:
        """Admit an object and, on success, set up replication for it."""
        if self.role is not Role.PRIMARY:
            raise NotPrimaryError(
                f"{self.name} is {self.role.value}, cannot register")
        decision = self.admission.admit(spec)
        self.sim.trace.record("registration", object=spec.object_id,
                              accepted=decision.accepted,
                              reason=decision.reason)
        if not decision.accepted:
            return decision
        self.store.register(spec, update_period=decision.update_period)
        self.transmitter.add_object(spec.object_id, decision.update_period)
        if self.peer_address is not None:
            self._replicate_registration(spec, decision.update_period)
        return decision

    def add_constraint(self, constraint: InterObjectConstraint
                       ) -> AdmissionDecision:
        """Admit an inter-object constraint; tightens transmission periods."""
        if self.role is not Role.PRIMARY:
            raise NotPrimaryError(
                f"{self.name} is {self.role.value}, cannot add constraint")
        decision = self.admission.add_constraint(constraint)
        self.sim.trace.record(
            "constraint", i=constraint.object_i, j=constraint.object_j,
            accepted=decision.accepted, reason=decision.reason)
        if decision.accepted:
            for object_id in (constraint.object_i, constraint.object_j):
                new_period = self.admission.update_period_of(object_id)
                self.transmitter.remove_object(object_id)
                self.transmitter.add_object(object_id, new_period)
                self.store.get(object_id).update_period = new_period
        return decision

    def drop_object(self, object_id: int) -> None:
        """Forget one object entirely (live-migration hand-off).

        Stops its transmission task, refunds its admission charge and
        removes its store record plus all registration bookkeeping.  Safe
        on any role and idempotent — the cluster's migration machinery
        calls it on both sides of the source pair at commit time.
        """
        self.transmitter.remove_object(object_id)
        self.admission.remove(object_id)
        if object_id in self.store:
            self.store.deregister(object_id)
        self._register_acked.discard(object_id)
        self.degraded_objects.discard(object_id)
        self._last_update_at.pop(object_id, None)

    def adjust_window(self, new_spec: ObjectSpec) -> AdmissionDecision:
        """Re-admit one registered object under a different δ^B.

        The QoS-degradation path (overload shedding) widens a window; the
        cool-down path narrows it back.  On acceptance the store record's
        spec and transmission period are swapped and the transmission task
        re-armed at the new period; on rejection the original admission is
        restored and nothing changes.
        """
        record = self.store.get(new_spec.object_id)
        old_spec = record.spec
        self.admission.remove(new_spec.object_id)
        decision = self.admission.admit(new_spec)
        if not decision.accepted:
            self.admission.admit(old_spec)
            return decision
        record.spec = new_spec
        record.update_period = decision.update_period
        if self.transmitter.knows(new_spec.object_id):
            self.transmitter.remove_object(new_spec.object_id)
            self.transmitter.add_object(new_spec.object_id,
                                        decision.update_period)
        return decision

    def _replicate_registration(self, spec: ObjectSpec,
                                update_period: float, attempt: int = 0) -> None:
        """Send REGISTER to the backup, retrying until acked (UDP is lossy).

        Exhausting ``registration_max_retries`` is not a silent drop: the
        transmitter is still replicating an object the backup never
        admitted (its updates are discarded on arrival), so the condition
        is traced as ``replication_degraded`` — visible to the
        InvariantMonitor — and a slow background reprobe keeps trying, so
        the pair converges if the backup comes back within the run.
        """
        if (not self.alive or self.peer_address is None
                or spec.object_id in self._register_acked):
            return
        if attempt >= self.config.registration_max_retries:
            self.sim.trace.record("registration_gave_up",
                                  object=spec.object_id)
            if spec.object_id not in self.degraded_objects:
                self.degraded_objects.add(spec.object_id)
                self.sim.trace.record(
                    "replication_degraded", server=self.name,
                    object=spec.object_id, reason="registration_unacked",
                    attempts=attempt)
            reprobe_delay = (self.config.registration_retry_period
                             * self.config.registration_max_retries)
            self.sim.schedule(reprobe_delay, self._replicate_registration,
                              spec, update_period, 0)
            return
        self._send_to_peer(encode_message(RegisterMsg(
            object_id=spec.object_id, size_bytes=spec.size_bytes,
            client_period=spec.client_period,
            delta_primary=spec.delta_primary,
            delta_backup=spec.delta_backup,
            update_period=update_period)))
        self.sim.schedule(self.config.registration_retry_period,
                          self._replicate_registration, spec, update_period,
                          attempt + 1)

    # ------------------------------------------------------------------
    # Datagram handling
    # ------------------------------------------------------------------

    def _message_handlers(self) -> Dict[type, Callable[[Any, int], None]]:
        """The dispatch table: one handler per wire message type, each
        taking ``(message, source_address)``.  Built once per server, so a
        subclass changes the handling of a message by overriding its
        handler (or this table)."""
        return {
            UpdateMsg: self._handle_update,
            PingMsg: self._handle_ping,
            PingAckMsg: self._handle_ping_ack,
            RetxRequestMsg: self._handle_retx_request,
            RegisterMsg: self._handle_register,
            RegisterAckMsg: self._handle_register_ack,
            RecruitMsg: self._handle_recruit,
            RecruitAckMsg: self._handle_recruit_ack,
            UpdateAckMsg: self._on_update_ack,
            ReplicaSubscribeMsg: self._handle_replica_subscribe,
            FreshnessBeaconMsg: self._handle_freshness_beacon,
        }

    def _on_datagram(self, data: bytes, source: tuple, _info: dict) -> None:
        if not self.alive:
            return
        try:
            message = decode_message(data)
        except MessageFormatError:
            self.sim.trace.record("rtpb_garbled", server=self.name)
            return
        handler = self._handlers.get(type(message))
        if handler is None:
            return
        try:
            handler(message, source[0])
        except NoRouteError:
            # A corrupted wire header can yield a source address no host
            # owns; a reply aimed there is a dropped packet, not a fault
            # in this server.
            self.sim.trace.record("rtpb_garbled", server=self.name)

    def _handle_ping(self, message: PingMsg, source_address: int) -> None:
        self.endpoint.send(source_address, self.port,
                           self.ping.make_ack(message))

    def _handle_ping_ack(self, message: PingAckMsg,
                         source_address: int) -> None:
        self.ping.handle_ack(message)

    # -- backup side ------------------------------------------------------

    def _handle_update(self, message: UpdateMsg,
                       source_address: int) -> None:
        if self.role is not Role.BACKUP or message.object_id not in self.store:
            return
        self._last_update_at[message.object_id] = self.sim.now
        cost = self.config.apply_cost(len(message.payload) or 1)

        def apply(_job: object) -> None:
            if not self.alive:
                return
            applied = self.store.apply_update(
                message.object_id, self.sim.now, message.seq,
                message.write_time, message.source_time, message.payload)
            if applied:
                self.updates_applied += 1
                self.sim.trace.record(
                    "backup_apply", object=message.object_id,
                    seq=message.seq, write_time=message.write_time,
                    source_time=message.source_time,
                    snapshot=message.snapshot)
            else:
                self.updates_stale += 1
                self.sim.trace.record("backup_apply_stale",
                                      object=message.object_id,
                                      seq=message.seq)
            if self.ack_updates or self.config.ack_updates:
                # Ack stale arrivals too: the backup is at least as fresh as
                # the received seq, and the original ack may have been lost —
                # without this, a synchronous writer can wait forever.  The
                # ack carries this store's acked source-time frontier (the
                # fast path's stability rule); a stale arrival reports the
                # *current* frontier, not the stale message's.
                acked = self.store.get(message.object_id)
                self._send_to_peer(encode_message(UpdateAckMsg(
                    object_id=message.object_id, seq=message.seq,
                    high_water=acked.source_time)))

        self.processor.submit(name=f"apply-{message.object_id}", cost=cost,
                              action=apply)

    def _handle_register(self, message: RegisterMsg,
                         source_address: int) -> None:
        if self.role is not Role.BACKUP:
            return
        if message.object_id in self.store:
            # Already known (a recovered replica being re-recruited, or a
            # REGISTER retry): refresh the period, keep the stored history.
            self.store.get(message.object_id).update_period = \
                message.update_period
        else:
            spec = ObjectSpec(
                object_id=message.object_id,
                name=f"obj-{message.object_id}",
                size_bytes=message.size_bytes,
                client_period=message.client_period,
                delta_primary=message.delta_primary,
                delta_backup=message.delta_backup)
            self.store.register(spec, update_period=message.update_period)
        self._last_update_at.setdefault(message.object_id, self.sim.now)
        self.endpoint.send(source_address, self.port, encode_message(
            RegisterAckMsg(object_id=message.object_id, accepted=True)))

    def _handle_register_ack(self, message: RegisterAckMsg,
                             source_address: int) -> None:
        if source_address != self.peer_address:
            # An in-flight ack from a previous (dead or deposed) backup.
            # Accepting it would re-mark the object as replicated and the
            # REGISTER retry loop toward the *current* backup would stop,
            # leaving it without the object forever.
            return
        if message.accepted:
            self._register_acked.add(message.object_id)
            self.degraded_objects.discard(message.object_id)
            if self.sim.trace.enabled("registration_replicated"):
                self.sim.trace.record("registration_replicated",
                                      object=message.object_id,
                                      backup=source_address)

    def _start_watchdog(self) -> None:
        """Backup-initiated retransmission: poll for silent objects."""
        if not self.config.retransmission_enabled or self._watchdog_running:
            return
        self._watchdog_running = True
        self._watchdog_sweep()

    def _watchdog_sweep(self) -> None:
        if not self._watchdog_running or not self.alive:
            return
        now = self.sim.now
        shortest_period = None
        for record in self.store:
            period = record.update_period
            if period is None:
                continue
            if shortest_period is None or period < shortest_period:
                shortest_period = period
            last_heard = self._last_update_at.get(record.spec.object_id)
            if last_heard is None:
                continue
            if now - last_heard > self.config.watchdog_factor * period:
                self._request_retransmission(record.spec.object_id)
                self._last_update_at[record.spec.object_id] = now
        interval = (shortest_period / 2.0 if shortest_period is not None
                    else self.config.ping_period)
        self.sim.schedule(interval * self._timer_scale, self._watchdog_sweep)

    def _request_retransmission(self, object_id: int) -> None:
        if self.peer_address is None:
            return
        self.retx_requests_sent += 1
        self.sim.trace.record("retx_request", object=object_id)
        self._send_to_peer(encode_message(RetxRequestMsg(
            object_id=object_id, last_seq=self.store.get(object_id).seq)))

    # -- primary side ------------------------------------------------------

    def _on_update_ack(self, message: UpdateAckMsg,
                       source_address: int) -> None:
        """Per-update acks are off in RTPB (Section 4.3); the eager baseline
        overrides this to complete synchronous writes."""
        self.sim.trace.record("update_ack", object=message.object_id,
                              seq=message.seq)

    def _handle_replica_subscribe(self, message: ReplicaSubscribeMsg,
                                  source_address: int) -> None:
        """Add (or refresh) a read replica in the update fan-out.

        A subscriber whose object count disagrees with ours is cold (fresh
        boot, or it missed registrations while we were not its primary):
        push the full catalogue — a REGISTER plus a state snapshot per
        object, the same state transfer recruitment uses — straight to its
        address.  Replicas never ack registrations (that would confuse the
        primary/backup registration retry), so the periodic resubscribe
        carrying ``known_objects`` *is* the retry loop.
        """
        if self.role is not Role.PRIMARY:
            return
        address = message.replica_address
        if address not in self.replica_subscribers:
            self.sim.trace.record("replica_subscribe", server=self.name,
                                  replica=address)
        self.replica_subscribers[address] = self.sim.now
        if message.known_objects == len(self.store):
            return
        self.sim.trace.record("replica_sync", server=self.name,
                              replica=address, objects=len(self.store))
        for record in self.store:
            period = record.update_period
            if period is None:
                period = self.config.update_period(record.spec)
            spec = record.spec
            self.endpoint.send(address, self.port, encode_message(RegisterMsg(
                object_id=spec.object_id, size_bytes=spec.size_bytes,
                client_period=spec.client_period,
                delta_primary=spec.delta_primary,
                delta_backup=spec.delta_backup,
                update_period=period)))
            seq, write_time, source_time, value = self.store.snapshot(
                spec.object_id)
            if seq > 0:
                self.endpoint.send(address, self.port, encode_message(
                    UpdateMsg(object_id=spec.object_id, seq=seq,
                              write_time=write_time, source_time=source_time,
                              payload=value, snapshot=True)))

    def _handle_freshness_beacon(self, message: FreshnessBeaconMsg,
                                 source_address: int) -> None:
        if self.role is not Role.PRIMARY:
            return
        address = message.replica_address
        if address in self.replica_subscribers:
            self.replica_subscribers[address] = self.sim.now
            self.replica_floors[address] = message.floor_source_time

    def _send_update(self, data: bytes) -> None:
        """Transmit one update: to the backup, then to each subscriber.

        The replica stream piggybacks on the existing transmission bytes —
        no extra serialisation, no second scheduler.  Subscribers silent for
        longer than ``replica_subscriber_timeout`` are pruned here (lazily,
        at fan-out time, which keeps pruning deterministic).
        """
        self._send_to_peer(data)
        if not self.replica_subscribers or not self.alive:
            return
        cutoff = self.sim.now - self.config.replica_subscriber_timeout
        for address in sorted(self.replica_subscribers):
            if self.replica_subscribers[address] < cutoff:
                del self.replica_subscribers[address]
                self.replica_floors.pop(address, None)
            else:
                self.endpoint.send(address, self.port, data)

    def _handle_retx_request(self, message: RetxRequestMsg,
                             source_address: int) -> None:
        if self.role is not Role.PRIMARY:
            return
        if (message.object_id not in self.store
                or not self.transmitter.knows(message.object_id)):
            return
        self.retx_requests_served += 1
        self.transmitter.send_now(message.object_id)

    # ------------------------------------------------------------------
    # Failure handling (Section 4.4)
    # ------------------------------------------------------------------

    def _peer_dead(self) -> None:
        if not self.alive:
            return
        if self.role is Role.PRIMARY:
            # "If the backup is dead, the primary cancels the 'ping'
            # messages as well as update events for each registered object"
            # ... and then waits to recruit a new backup.
            self.sim.trace.record("backup_lost", server=self.name)
            self.transmitter.stop()
            self.peer_address = None
            self._register_acked.clear()
            self.degraded_objects.clear()
            self._recruit_backup()
        elif self.role is Role.BACKUP and self.config.failover_enabled:
            self.promote()

    def promote(self) -> None:
        """Backup takes over as the new primary."""
        if self.role is not Role.BACKUP or not self.alive:
            return
        self.sim.trace.record("failover", new_primary=self.name)
        self.role = Role.PRIMARY
        self.ping.stop()
        self._watchdog_running = False
        self.peer_address = None
        # "changes the address in the name file to its own internet address"
        self.name_service.publish(self.service_name, self.host.address)
        # Re-run admission for the objects it inherited (they passed before,
        # so this re-establishes transmission periods deterministically).
        for record in self.store:
            decision = self.admission.admit(record.spec)
            if decision.accepted:
                record.update_period = decision.update_period
        # "invokes a backup version of the client application at the local
        # machine, feeds the new client with information stored in its
        # memory by an up call"
        if self.local_client is not None:
            self.local_client.activate(self)
        self._adopt_backups()

    def _adopt_backups(self) -> None:
        """Give this new primary someone to replicate to: it "waits to
        recruit a new backup" from the spares."""
        self._recruit_backup()

    def _recruit_backup(self) -> None:
        if self._recruiting or not self.spare_addresses:
            return
        self._recruiting = True
        self._send_recruit(self.spare_addresses[0], attempt=0)

    def _send_recruit(self, spare: int, attempt: int) -> None:
        if not self.alive or self.peer_address is not None:
            return
        if attempt >= self.config.registration_max_retries:
            self.sim.trace.record("recruit_gave_up", spare=spare)
            self._recruiting = False
            return
        self.endpoint.send(spare, self.port, encode_message(RecruitMsg(
            primary_address=self.host.address,
            object_count=len(self.store))))
        self.sim.schedule(self.config.registration_retry_period,
                          self._send_recruit, spare, attempt + 1)

    def _handle_recruit(self, message: RecruitMsg,
                        source_address: int) -> None:
        if self.role is not Role.SPARE:
            # Already recruited: re-ack (the first ack may have been lost).
            if self.role is Role.BACKUP and self.peer_address == source_address:
                self.endpoint.send(source_address, self.port, encode_message(
                    RecruitAckMsg(backup_address=self.host.address)))
            return
        self.role = Role.BACKUP
        self.peer_address = message.primary_address
        self.ping.role = ROLE_BACKUP_WIRE
        self.sim.trace.record("recruited", server=self.name,
                              primary=message.primary_address)
        self.endpoint.send(source_address, self.port, encode_message(
            RecruitAckMsg(backup_address=self.host.address)))
        self.ping.start()
        self._start_watchdog()

    def _handle_recruit_ack(self, message: RecruitAckMsg,
                            source_address: int) -> None:
        if self.role is not Role.PRIMARY or self.peer_address is not None:
            return
        self._recruiting = False
        self.peer_address = message.backup_address
        if message.backup_address in self.spare_addresses:
            self.spare_addresses.remove(message.backup_address)
        # Re-arm per-object registration state for the *new* backup: an
        # in-flight RegisterAck from the old one may have re-populated the
        # acked set after _peer_dead cleared it, which would silently skip
        # the REGISTER below and leave the recruit without those objects.
        self._register_acked.clear()
        self.degraded_objects.clear()
        # Replicate registrations, transfer state, resume update tasks.
        for record in self.store:
            self._replicate_registration(record.spec,
                                         record.update_period or
                                         self.config.update_period(record.spec))
            seq, write_time, source_time, value = self.store.snapshot(
                record.spec.object_id)
            if seq > 0:
                self._send_to_peer(encode_message(UpdateMsg(
                    object_id=record.spec.object_id, seq=seq,
                    write_time=write_time, source_time=source_time,
                    payload=value, snapshot=True)))
        self.transmitter.start()
        for record in self.store:
            period = record.update_period
            if period is None:
                period = self.config.update_period(record.spec)
            self.transmitter.add_object(record.spec.object_id, period)
        self.ping.start()

    # ------------------------------------------------------------------

    def _send_to_peer(self, data: bytes) -> None:
        if self.alive and self.peer_address is not None:
            self.endpoint.send(self.peer_address, self.port, data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "crashed"
        return f"<ReplicaServer {self.name} {self.role.value} {state}>"
