"""Window-consistent read replicas.

A :class:`ReadReplica` is the read-path sibling of the paper's backup: it
subscribes to the primary's update stream (the same transmission bytes the
backup receives — no second serialisation, no second scheduler) but never
pings, never votes, and never fails over.  Its one promise is the RTPB
temporal-consistency contract itself: a read is served only when the
replica can *prove*, from its own applied state, that the returned sample
is stale by at most the object's registered δ^B — otherwise the read is
refused and the router falls back to the primary.

Two periodic loops keep the replica honest:

- a **resubscribe loop** re-resolves the name file and re-sends
  ``REPLICA_SUBSCRIBE`` to whoever is primary now, carrying the replica's
  object count so a post-failover (or freshly recruited) primary can push
  a full catalogue + state-snapshot sync;
- a **freshness beacon** that (a) refreshes the *advertised* per-object
  high-water timestamps the router inspects and (b) tells the primary the
  replica is still listening (a silent replica is pruned from the fan-out).

The advertised snapshot deliberately lags the applied state by up to one
beacon period, which makes it a conservative staleness bound: the router
filtering on it can only *over*-estimate staleness, never under-estimate.

Trace categories: ``replica_subscribe`` (primary side), ``replica_sync``
(primary side), ``replica_apply``, ``replica_apply_stale``,
``replica_beacon``, ``read_served``, ``read_refused_stale``,
``read_rejected``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.core.name_service import NameService
from repro.core.object_store import ObjectStore
from repro.core.rtpb_protocol import (
    RTPB_PORT,
    FreshnessBeaconMsg,
    RegisterMsg,
    ReplicaSubscribeMsg,
    UpdateMsg,
    decode_message,
    encode_message,
)
from repro.core.server import build_processor
from repro.core.spec import ObjectSpec, ServiceConfig
from repro.errors import MessageFormatError, NoRouteError, ReplicationError
from repro.net.ip import Host
from repro.sched.processor import Processor
from repro.sched.task import BAND_REALTIME
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.service import RTPBService

#: ``on_complete(value, staleness, response_time)`` for a served read.
ReadCallback = Callable[[bytes, float, float], None]


class ReadReplica:
    """One read replica on one host.

    Mirrors :class:`~repro.core.server.ReplicaServer`'s deployment contract:
    a standalone replica owns its host (crash takes the NIC down); a
    cluster-colocated one is built with ``owns_host=False``, a per-group
    ``port``, the shared per-host ``processor`` and an unambiguous ``name``.
    """

    def __init__(self, sim: Simulator, host: Host, config: ServiceConfig,
                 name_service: NameService,
                 service_name: str = "rtpb",
                 role_name: str = "replica0",
                 port: int = RTPB_PORT,
                 processor: Optional[Processor] = None,
                 owns_host: bool = True,
                 name: Optional[str] = None) -> None:
        self.sim = sim
        self.host = host
        self.config = config
        self.name_service = name_service
        self.service_name = service_name
        self.role_name = role_name
        self.port = port
        self.owns_host = owns_host
        self.name = name if name is not None else host.name
        self.alive = True
        self.decommissioned = False

        self.processor = (processor if processor is not None
                          else build_processor(sim, config,
                                               name=f"{host.name}.cpu"))
        self.store = ObjectStore()
        self.endpoint = host.udp_endpoint(self.port,
                                          on_receive=self._on_datagram)

        #: Advertised per-object applied timestamps — the beacon-time
        #: snapshot the router reads.  Always ≤ the live applied timestamp,
        #: so routing decisions taken on it are conservative.
        self.advertised: Dict[int, float] = {}

        # Counters.
        self.updates_applied = 0
        self.updates_stale = 0
        self.reads_served = 0
        self.reads_refused = 0
        self.reads_inflight = 0
        #: object id -> the name of its read jobs, built once.
        self._read_job_names: Dict[int, str] = {}

        self._started = False
        #: Bumped on crash/recover so stale scheduled ticks self-cancel.
        self._generation = 0
        self._timer_scale = 1.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started or not self.alive:
            return
        self._started = True
        self.name_service.publish_role(self.service_name, self.role_name,
                                       self.host.address)
        self._start_loops()

    def _start_loops(self) -> None:
        generation = self._generation
        # Subscribe immediately (cold replicas want the catalogue now);
        # stagger the first beacon so replica populations don't beat in
        # lockstep.
        rng = self.sim.random.stream(f"{self.name}.phase")
        self._subscribe_tick(generation)
        self.sim.schedule(
            rng.uniform(0.0, self.config.replica_beacon_period),
            self._beacon_tick, generation)

    def crash(self) -> None:
        """Crash failure: stop applying, stop serving, stop beaconing."""
        if not self.alive:
            return
        self.alive = False
        self._generation += 1
        if self.owns_host:
            self.host.fail()
        self.sim.trace.record("server_crash", server=self.name,
                              role=self.role_name)

    def recover(self) -> None:
        """Reboot with memory intact and rejoin the read path.

        Unlike a backup, a replica resumes its *own* role: it re-publishes
        its role entry and resubscribes — the primary's catalogue sync plus
        the sequence guard in :meth:`ObjectStore.apply_update` refresh any
        stale versions safely.
        """
        if self.alive or self.decommissioned:
            return
        self.alive = True
        if self.owns_host:
            self.host.recover()
        self.sim.trace.record("server_recover", server=self.name)
        self.name_service.publish_role(self.service_name, self.role_name,
                                       self.host.address)
        self._start_loops()

    def decommission(self) -> None:
        """Retire for good: crash, clear the name file, release the port."""
        if self.decommissioned:
            return
        self.crash()
        self.decommissioned = True
        self.name_service.unpublish_role(self.service_name, self.role_name)
        self.endpoint.close()

    def set_clock_scale(self, scale: float) -> None:
        """Bounded clock drift: scales the resubscribe/beacon timers."""
        if scale <= 0:
            raise ReplicationError(f"clock scale must be > 0: {scale}")
        self._timer_scale = scale

    # ------------------------------------------------------------------
    # Periodic loops
    # ------------------------------------------------------------------

    def _primary_address(self) -> Optional[int]:
        address = self.name_service.peek(self.service_name)
        if address is None or address == self.host.address:
            return None
        return address

    def _subscribe_tick(self, generation: int) -> None:
        if generation != self._generation or not self.alive:
            return
        target = self._primary_address()
        if target is not None:
            self._send(target, encode_message(ReplicaSubscribeMsg(
                replica_address=self.host.address,
                known_objects=len(self.store))))
        self.sim.schedule(
            self.config.replica_resubscribe_period * self._timer_scale,
            self._subscribe_tick, generation)

    def _beacon_tick(self, generation: int) -> None:
        if generation != self._generation or not self.alive:
            return
        floors = []
        fully_applied = True
        for record in self.store:
            if record.seq > 0:
                self.advertised[record.spec.object_id] = record.source_time
                floors.append(record.source_time)
            else:
                fully_applied = False
        # The wire floor is the provable high-water mark over *all* objects;
        # 0.0 (epoch) is the honest answer while anything is still unapplied.
        floor = min(floors) if floors and fully_applied else 0.0
        target = self._primary_address()
        if target is not None:
            self._send(target, encode_message(FreshnessBeaconMsg(
                replica_address=self.host.address,
                floor_source_time=floor,
                applied_updates=self.updates_applied)))
        self.sim.trace.record("replica_beacon", server=self.name,
                              floor=floor, applied=self.updates_applied)
        self.sim.schedule(
            self.config.replica_beacon_period * self._timer_scale,
            self._beacon_tick, generation)

    def _send(self, address: int, data: bytes) -> None:
        try:
            self.endpoint.send(address, self.port, data)
        except NoRouteError:
            # The name file can briefly point at a decommissioned address
            # during cluster re-placement; the next tick re-resolves.
            pass

    # ------------------------------------------------------------------
    # Update stream
    # ------------------------------------------------------------------

    def _on_datagram(self, data: bytes, source: tuple, _info: dict) -> None:
        if not self.alive:
            return
        try:
            message = decode_message(data)
        except MessageFormatError:
            self.sim.trace.record("rtpb_garbled", server=self.name)
            return
        if isinstance(message, UpdateMsg):
            self._handle_update(message)
        elif isinstance(message, RegisterMsg):
            self._handle_register(message)
        # Anything else on this port (stray pings, recruit traffic aimed at
        # a reused address) is silently ignored: replicas take no part in
        # the replication protocol proper.

    def _handle_register(self, message: RegisterMsg) -> None:
        """Adopt one catalogue entry from a primary's sync push.

        Deliberately *not* acknowledged: a REGISTER ack from a replica
        would satisfy the primary's primary↔backup registration retry loop
        and mask a dead backup.  The resubscribe message's object count is
        the replica-side retry mechanism instead.
        """
        if message.object_id in self.store:
            self.store.get(message.object_id).update_period = \
                message.update_period
            return
        spec = ObjectSpec(
            object_id=message.object_id,
            name=f"obj-{message.object_id}",
            size_bytes=message.size_bytes,
            client_period=message.client_period,
            delta_primary=message.delta_primary,
            delta_backup=message.delta_backup)
        self.store.register(spec, update_period=message.update_period)

    def _handle_update(self, message: UpdateMsg) -> None:
        if message.object_id not in self.store:
            # Unknown object: the next resubscribe's count mismatch makes
            # the primary push the catalogue; dropping here is safe.
            return
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
                    "replica_apply", object=message.object_id,
                    seq=message.seq, source_time=message.source_time,
                    server=self.name)
            else:
                self.updates_stale += 1
                self.sim.trace.record("replica_apply_stale",
                                      object=message.object_id,
                                      seq=message.seq, server=self.name)

        self.processor.submit(name=f"rapply-{message.object_id}", cost=cost,
                              action=apply)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def advertised_staleness(self, object_id: int, now: float) -> float:
        """Provable staleness bound from the advertised snapshot.

        ``inf`` until the first beacon after the first applied update —
        an unadvertised object is unroutable, not optimistically fresh.
        """
        advertised = self.advertised.get(object_id)
        if advertised is None:
            return float("inf")
        return now - advertised

    def serve_read(self, object_id: int,
                   on_complete: Optional[ReadCallback] = None,
                   on_reject: Optional[Callable[[], None]] = None) -> bool:
        """Serve one read iff the staleness contract provably holds.

        The bound is checked twice: at admission (against the live applied
        state) and again when the costed RPC job completes — CPU queueing
        grows staleness, and a read that aged past δ^B while waiting is
        refused rather than served in violation.  ``on_reject`` fires on
        the late refusal so the caller can fall back to the primary;
        returning False signals an immediate refusal the same way.
        """
        if not self.alive or object_id not in self.store:
            self.sim.trace.record("read_rejected", object=object_id,
                                  server=self.name)
            return False
        record = self.store.get(object_id)
        bound = record.spec.delta_backup
        issue_time = self.sim.now
        staleness = (issue_time - record.source_time
                     if record.seq > 0 else float("inf"))
        if staleness > bound:
            self.reads_refused += 1
            self.sim.trace.record("read_refused_stale", object=object_id,
                                  server=self.name, staleness=staleness,
                                  bound=bound, late=False)
            return False
        self.reads_inflight += 1

        def handle(_job: object) -> None:
            self.reads_inflight -= 1
            if not self.alive:
                if on_reject is not None:
                    on_reject()
                return
            now = self.sim.now
            staleness = (now - record.source_time
                         if record.seq > 0 else float("inf"))
            if staleness > bound:
                self.reads_refused += 1
                self.sim.trace.record(
                    "read_refused_stale", object=object_id,
                    server=self.name, staleness=staleness, bound=bound,
                    late=True)
                if on_reject is not None:
                    on_reject()
                return
            response = now - issue_time
            self.reads_served += 1
            self.sim.trace.record(
                "read_served", object=object_id, server=self.name,
                service=self.service_name, issue=issue_time,
                response=response, staleness=staleness, bound=bound)
            if on_complete is not None:
                on_complete(record.value, staleness, response)

        names = self._read_job_names
        self.processor.submit(
            name=names.get(object_id)
            or names.setdefault(object_id, f"rread-{object_id}"),
            cost=self.config.rpc_read_cost,
            deadline=issue_time + self.config.rpc_deadline,
            band=BAND_REALTIME, action=handle)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "crashed"
        return (f"<ReadReplica {self.name} {self.role_name} {state} "
                f"objects={len(self.store)}>")


def seat_replicas(service: "RTPBService", n_replicas: int) -> None:
    """Seat ``n_replicas`` read replicas in a pair's group: ``replica0``, …
    each on a host of its own, at the addresses after the last member."""
    first_address = max(service.servers) + 1
    for index in range(n_replicas):
        host = Host(service.sim, service.fabric, f"replica{index}",
                    first_address + index)
        service.replicas.append(ReadReplica(
            service.sim, host, service.config, service.name_service,
            service_name=service.name, role_name=f"replica{index}"))
