"""Active (state-machine) replication baseline.

The replication style the paper's related work contrasts RTPB with (MARS,
RTCAST, Schneider's state-machine approach): every client write is applied
atomically, in the same total order, at every replica, and the client's
response waits for the whole group.

Implementation: sequencer-ordered atomic multicast.  One replica is the
**sequencer**; it assigns a global sequence number to each write, applies it
locally, and multicasts the ordered update to the members.  Members deliver
strictly in order (a hold-back queue absorbs UDP reordering), apply, and
ack; the sequencer answers the client once *every* member acked.  Lost
multicasts and lost acks are retried; duplicate deliveries re-ack.

Every member of the group runs :class:`ActiveReplica`
(``RTPBService(server_class=ActiveReplica, n_backups=k)``, or
``replication="active"`` / ``"semi_active"`` in a scenario): the group's
primary is the sequencer, its backups the members.

Membership is fixed (no failover) — this baseline exists to quantify the
steady-state cost of atomic-ordered delivery, the overhead the paper's
temporal-consistency relaxation avoids: "schemes based on active
replication ... tend to have more overhead in responding to client requests
since an agreement protocol must be performed".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.admission import AdmissionDecision
from repro.core.rtpb_protocol import UpdateAckMsg, UpdateMsg, encode_message
from repro.core.server import ReplicaServer, Role
from repro.core.spec import ObjectSpec
from repro.errors import ReplicationError
from repro.sched.task import BAND_REALTIME

#: Retry interval for unacked ordered updates, in delay-bound units.
_RETRY_FACTOR = 3.0


class ActiveReplica(ReplicaServer):
    """One member of the state-machine group: the group's primary is the
    sequencer, its backups the members (any number of them).

    ``wait_for_acks`` selects the response discipline: True is classical
    active replication (respond after the whole group applied);
    :class:`SemiActiveReplica` flips it.  Of the base server it keeps the
    deployment plumbing (host, CPU, store, endpoint, crash); heartbeats,
    admission, the periodic transmitter and failover are never started.
    """

    max_backups = None
    wait_for_acks = True

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        #: Every replica of the group, sequencer first (set by
        #: :meth:`build_group`): registration is deploy-time configuration.
        self._replicas: List["ActiveReplica"] = [self]
        # Sequencer state.
        self._next_seq = 1
        self._pending: Dict[int, Tuple[float, Optional[Callable], Set[int]]] = {}
        # Member state.
        self._next_expected = 1
        self._holdback: Dict[int, UpdateMsg] = {}
        self._applying = False

    @classmethod
    def host_names(cls, n_backups: int) -> List[str]:
        return [f"replica{index}" for index in range(1 + n_backups)]

    @classmethod
    def build_group(cls, *args: Any, **kwargs: Any) -> List[ReplicaServer]:
        members = super().build_group(*args, **kwargs)
        members[0]._replicas = members
        return members

    @property
    def is_sequencer(self) -> bool:
        return self.role is Role.PRIMARY

    def start(self) -> None:
        if self.is_sequencer:
            self.name_service.publish(self.service_name, self.host.address)

    def _message_handlers(self) -> Dict[type, Callable[[Any, int], None]]:
        return {UpdateMsg: self._handle_update,
                UpdateAckMsg: self._on_update_ack}

    # ------------------------------------------------------------------
    # Client interface (sequencer only)
    # ------------------------------------------------------------------

    def register_object(self, spec: ObjectSpec) -> AdmissionDecision:
        """Fixed membership, no admission control: configure the object on
        every replica of the group."""
        for replica in self._replicas:
            replica.store.register(spec)
        return AdmissionDecision(
            True, reason="active-replication-admits-everything")

    def client_write(self, object_id: int, value: bytes, source_time: float,
                     on_complete: Optional[Callable[[float], None]] = None
                     ) -> bool:
        if not self.alive or not self.is_sequencer:
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
            seq = self._next_seq
            self._next_seq += 1
            record = self.store.get(object_id)
            record.seq = seq
            record.value = value
            record.write_time = self.sim.now
            record.source_time = source_time
            record.history.record(self.sim.now, seq, source_time)
            self.writes_handled += 1
            self.sim.trace.record("primary_write", object=object_id,
                                  seq=seq, source_time=source_time)
            if self.wait_for_acks:
                self._pending[seq] = (issue_time, on_complete,
                                      set(self.succession))
            else:
                # Semi-active: respond now; delivery tracking continues so
                # retries still push the ordered update to every member.
                response = self.sim.now - issue_time
                self.sim.trace.record("client_response", object=object_id,
                                      issue=issue_time, response=response)
                if on_complete is not None:
                    on_complete(response)
                self._pending[seq] = (issue_time, None, set(self.succession))
            message = UpdateMsg(object_id=object_id, seq=seq,
                                write_time=self.sim.now,
                                source_time=source_time, payload=value)
            self._multicast(message, attempt=0)

        self._submit_rpc(f"rpc-{object_id}", self.config.rpc_cost, handle)
        return True

    # ------------------------------------------------------------------
    # Ordered multicast (sequencer)
    # ------------------------------------------------------------------

    def _multicast(self, message: UpdateMsg, attempt: int) -> None:
        pending = self._pending.get(message.seq)
        if not self.alive or pending is None:
            return
        _issue, _cb, awaiting = pending
        cost = self.config.tx_cost(len(message.payload) or 1)

        def send(_job: object) -> None:
            current = self._pending.get(message.seq)
            if not self.alive or current is None:
                return
            encoded = encode_message(message)
            for address in current[2]:  # only the members still unacked
                self.endpoint.send(address, self.port, encoded)
            self.sim.trace.record("update_sent", object=message.object_id,
                                  seq=message.seq,
                                  write_time=message.write_time,
                                  retransmission=attempt > 0)
            self.sim.schedule(_RETRY_FACTOR * self.config.ell,
                              self._multicast, message, attempt + 1)

        self.processor.submit(name=f"mcast-{message.object_id}", cost=cost,
                              deadline=self.sim.now + self.config.rpc_deadline,
                              band=BAND_REALTIME, action=send)

    def _on_update_ack(self, ack: UpdateAckMsg, source: int) -> None:
        pending = self._pending.get(ack.seq)  # always empty on a member
        if pending is None:
            return
        issue_time, on_complete, awaiting = pending
        awaiting.discard(source)
        if awaiting:
            return
        del self._pending[ack.seq]
        if not self.wait_for_acks:
            return  # semi-active: the client was answered at apply time
        response = self.sim.now - issue_time
        self.sim.trace.record("client_response", object=ack.object_id,
                              issue=issue_time, response=response)
        if on_complete is not None:
            on_complete(response)

    # ------------------------------------------------------------------
    # Ordered delivery (members)
    # ------------------------------------------------------------------

    def _handle_update(self, message: UpdateMsg, source: int) -> None:
        if self.is_sequencer:
            return
        if message.seq < self._next_expected:
            # Duplicate (our ack was lost): re-ack so the sequencer stops.
            self._ack(message)
            return
        self._holdback[message.seq] = message
        self._drain_holdback()

    def _drain_holdback(self) -> None:
        if self._applying:
            return
        message = self._holdback.pop(self._next_expected, None)
        if message is None:
            return
        self._applying = True
        cost = self.config.apply_cost(len(message.payload) or 1)

        def apply(_job: object) -> None:
            self._applying = False
            if not self.alive:
                return
            if message.object_id in self.store:
                applied = self.store.apply_update(
                    message.object_id, self.sim.now, message.seq,
                    message.write_time, message.source_time, message.payload)
                if applied:
                    self.updates_applied += 1
                    self.sim.trace.record(
                        "backup_apply", object=message.object_id,
                        seq=message.seq, write_time=message.write_time,
                        source_time=message.source_time, snapshot=False)
            self._next_expected = message.seq + 1
            self._ack(message)
            self._drain_holdback()

        self.processor.submit(name=f"apply-{message.object_id}", cost=cost,
                              action=apply)

    def _ack(self, message: UpdateMsg) -> None:
        self._send_to_peer(encode_message(
            UpdateAckMsg(object_id=message.object_id, seq=message.seq)))


class SemiActiveReplica(ActiveReplica):
    """Hybrid active/passive replication — the paper's last future-work item.

    Updates keep the active scheme's total order and reliable delivery to
    every member, but the client's response returns after the sequencer's
    local apply (passive-style), so response time matches passive
    replication while member state stays ordered and convergent.
    """

    wait_for_acks = False
