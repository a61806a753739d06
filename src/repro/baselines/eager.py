"""Eager (synchronous) primary-backup baseline.

The classical passive-replication discipline the paper's introduction
contrasts with: every client write is propagated to the backup immediately
and the client's response is withheld until the backup acknowledges the
apply.  Consistency between primary and backup is as tight as the network
allows, but every write pays transmission cost + one-way delay + backup
apply + ack delay — the overhead RTPB's relaxed temporal consistency
eliminates from the critical path.

Every member of the group runs :class:`EagerServer`
(``RTPBService(server_class=EagerServer)``, or ``replication="eager"`` in a
scenario): the class declares ``ack_updates``, so its backups acknowledge
applies, and a backup promoted at failover keeps the synchronous semantics.

Failure semantics: a write deferred on the backup's ack can never complete
once that backup is dead.  When the primary declares the backup lost it
*flushes* every pending completion — the client gets its callback and a
``client_response_degraded`` trace record (the write is durable on the
primary only) instead of waiting forever on a retry loop aimed at a
corpse.  See :mod:`repro.baselines.fastpath` for the commutative/stable
fast path layered on this baseline.

Trace categories: ``client_response``, ``client_response_degraded``,
``update_sent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.admission import AdmissionDecision
from repro.core.object_store import ObjectRecord
from repro.core.rtpb_protocol import (RecruitAckMsg, RetxRequestMsg,
                                      UpdateAckMsg, UpdateMsg, encode_message)
from repro.core.server import ReplicaServer, Role
from repro.core.spec import ObjectSpec
from repro.sched.task import BAND_REALTIME

#: How long an unacked synchronous write waits before retransmitting.
_RETRY_FACTOR = 3.0


@dataclass
class _PendingWrite:
    """One write awaiting the backup's ack.

    ``completed`` marks writes the fast path already answered — the entry
    then only tracks replication (retry until acked), and the ack completes
    it silently instead of tracing a second client response.
    """

    issue_time: float
    on_complete: Optional[Callable[[float], None]]
    completed: bool = False


class EagerServer(ReplicaServer):
    """Replica whose primary role completes writes only after the backup
    acks them."""

    ack_updates = True
    #: Extra ``client_response`` fields of a write answered by its ack (the
    #: fast-path subclass tags them; plain eager keeps the legacy shape).
    _deferred_response_fields: Dict[str, str] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        #: (object_id, seq) -> the pending write awaiting that ack.
        self._pending_acks: Dict[Tuple[int, int], _PendingWrite] = {}
        self.sync_retransmissions = 0
        #: Writes completed degraded (backup died before acking).
        self.degraded_completions = 0

    def register_object(self, spec: ObjectSpec) -> AdmissionDecision:
        decision = super().register_object(spec)
        if decision.accepted:
            # No periodic refresh: propagation is per-write and synchronous.
            self.transmitter.remove_object(spec.object_id)
        return decision

    def _after_primary_write(self, record: ObjectRecord, issue_time: float,
                             on_complete: Optional[Callable[[float], None]]
                             ) -> None:
        self._defer_until_ack(record, issue_time, on_complete)

    def _defer_until_ack(self, record: ObjectRecord, issue_time: float,
                         on_complete: Optional[Callable[[float], None]],
                         completed: bool = False) -> None:
        """Queue the write on the backup's ack and start the sync send."""
        if self.peer_address is None:
            # Unpaired primary: the ack can never come.  Answer degraded
            # now instead of queueing on a backup that does not exist — a
            # later recruit receives this state through the recruit-time
            # snapshot transfer, not through this write's retry loop.
            if not completed:
                response = self.sim.now - issue_time
                self.degraded_completions += 1
                self.sim.trace.record(
                    "client_response_degraded",
                    object=record.spec.object_id, issue=issue_time,
                    response=response, server=self.name, reason="unpaired")
                if on_complete is not None:
                    on_complete(response)
            return
        key = (record.spec.object_id, record.seq)
        self._pending_acks[key] = _PendingWrite(issue_time, on_complete,
                                                completed=completed)
        self._send_sync_update(record.spec, record.seq, attempt=0)

    def _send_sync_update(self, spec: ObjectSpec, seq: int,
                          attempt: int) -> None:
        key = (spec.object_id, seq)
        if not self.alive or key not in self._pending_acks:
            return
        cost = self.config.tx_cost(spec.size_bytes)

        def send(_job: object) -> None:
            if not self.alive or key not in self._pending_acks:
                return
            current_seq, write_time, source_time, value = self.store.snapshot(
                spec.object_id)
            if current_seq < seq:
                return  # cannot happen (seqs are monotonic); defensive
            self._send_to_peer(encode_message(UpdateMsg(
                object_id=spec.object_id, seq=current_seq,
                write_time=write_time, source_time=source_time,
                payload=value)))
            self.sim.trace.record("update_sent", object=spec.object_id,
                                  seq=current_seq, write_time=write_time,
                                  retransmission=attempt > 0)
            if attempt > 0:
                self.sync_retransmissions += 1
            # UDP may drop the update or the ack; retry until acked.
            self.sim.schedule(_RETRY_FACTOR * self.config.ell,
                              self._send_sync_update, spec, seq, attempt + 1)

        self.processor.submit(name=f"eager-tx-{spec.object_id}", cost=cost,
                              deadline=self.sim.now + self.config.rpc_deadline,
                              band=BAND_REALTIME, action=send)

    def _handle_retx_request(self, message: RetxRequestMsg,
                             source_address: int) -> None:
        """Serve backup watchdog requests with a fresh synchronous-style
        snapshot (there is no decoupled transmitter state to delegate to)."""
        if self.role is not Role.PRIMARY or message.object_id not in self.store:
            return
        self.retx_requests_served += 1
        record = self.store.get(message.object_id)
        if record.seq > 0:
            key = (message.object_id, record.seq)
            if key not in self._pending_acks:
                self._pending_acks[key] = _PendingWrite(self.sim.now, None)
            self._send_sync_update(record.spec, record.seq, attempt=1)

    def _on_update_ack(self, message: UpdateAckMsg,
                       source_address: int) -> None:
        # An ack for seq also covers every older pending write of the object
        # (the backup's state is at least as new as seq).
        completed = [key for key in self._pending_acks
                     if key[0] == message.object_id and key[1] <= message.seq]
        for key in sorted(completed, key=lambda item: item[1]):
            pending = self._pending_acks.pop(key)
            if pending.completed:
                continue  # the fast path already answered this client
            response = self.sim.now - pending.issue_time
            self.sim.trace.record("client_response", object=key[0],
                                  issue=pending.issue_time, response=response,
                                  **self._deferred_response_fields)
            if pending.on_complete is not None:
                pending.on_complete(response)

    # -- failure handling --------------------------------------------------

    def _peer_dead(self) -> None:
        """Flush deferred completions before the generic backup-lost path.

        Without this, every write caught in flight when the backup crashes
        leaks: its ``on_complete`` never fires and its retry loop spins
        until the horizon.  The client instead gets a *degraded* completion
        — traced as ``client_response_degraded``, not ``client_response``,
        because the write is durable on the primary alone.
        """
        if (self.alive and self.role is Role.PRIMARY
                and self._pending_acks):
            self._flush_pending_degraded(reason="backup_lost")
        super()._peer_dead()

    def _flush_pending_degraded(self, reason: str) -> None:
        for key in sorted(self._pending_acks):
            pending = self._pending_acks.pop(key)
            if pending.completed:
                continue
            response = self.sim.now - pending.issue_time
            self.degraded_completions += 1
            self.sim.trace.record("client_response_degraded", object=key[0],
                                  issue=pending.issue_time, response=response,
                                  server=self.name, reason=reason)
            if pending.on_complete is not None:
                pending.on_complete(response)

    def _handle_recruit_ack(self, message: RecruitAckMsg,
                            source_address: int) -> None:
        """Integrate a recruited backup under eager semantics.

        The generic path re-arms the decoupled periodic transmitter; eager
        propagation is per-write, so those tasks are removed again and each
        written object instead gets a retried synchronous snapshot (the
        generic path's one-shot state transfer is unretried, which under
        loss would strand the new backup until its watchdog notices).
        """
        was_unpaired = self.role is Role.PRIMARY and self.peer_address is None
        super()._handle_recruit_ack(message, source_address)
        if not was_unpaired or self.peer_address is None:
            return
        for record in self.store:
            self.transmitter.remove_object(record.spec.object_id)
            if record.seq > 0:
                key = (record.spec.object_id, record.seq)
                if key not in self._pending_acks:
                    self._pending_acks[key] = _PendingWrite(
                        self.sim.now, None, completed=True)
                self._send_sync_update(record.spec, record.seq, attempt=0)
