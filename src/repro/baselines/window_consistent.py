"""Window-consistent replication baseline (Mehra et al. [22]).

The predecessor design the paper generalises.  Differences from RTPB:

- No decoupled periodic update tasks: each client write triggers one
  transmission to the backup, which must leave within ``δ_i - ℓ`` of the
  write (Theorem 5's ``r ≤ (δ^B - δ^P) - ℓ``, the window-consistent bound).
- Transmission work therefore scales with the *write rate*, not with the
  window — under fast writers the primary spends more CPU on transmissions
  than RTPB needs, and there is no slack-driven loss compensation.

Admission control, failure detection and failover are inherited unchanged —
the baseline isolates the update-scheduling difference.  Every member runs
:class:`WindowConsistentServer`
(``RTPBService(server_class=WindowConsistentServer)``, or
``replication="window_consistent"`` in a scenario), so a backup promoted at
failover keeps transmitting per write.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.object_store import ObjectRecord
from repro.core.rtpb_protocol import RetxRequestMsg, UpdateMsg, encode_message
from repro.core.server import ReplicaServer, Role
from repro.sched.task import BAND_REALTIME


class WindowConsistentServer(ReplicaServer):
    """Replica whose primary role couples transmissions one-to-one to
    client writes."""

    #: No decoupled periodic task; transmission is write-driven.
    periodic_updates = False

    def _after_primary_write(self, record: ObjectRecord, issue_time: float,
                             on_complete: Optional[Callable[[float], None]]
                             ) -> None:
        super()._after_primary_write(record, issue_time, on_complete)
        self._schedule_coupled_send(record)

    def _schedule_coupled_send(self, record: ObjectRecord) -> None:
        spec = record.spec
        deadline = self.sim.now + max(spec.window - self.config.ell, 1e-6)
        cost = self.config.tx_cost(spec.size_bytes)

        def send(_job: object) -> None:
            if not self.alive or self.peer_address is None:
                return
            seq, write_time, source_time, value = self.store.snapshot(
                spec.object_id)
            if seq == 0:
                return
            self._send_to_peer(encode_message(UpdateMsg(
                object_id=spec.object_id, seq=seq, write_time=write_time,
                source_time=source_time, payload=value)))
            self.sim.trace.record("update_sent", object=spec.object_id,
                                  seq=seq, write_time=write_time,
                                  retransmission=False)

        self.processor.submit(name=f"wc-tx-{spec.object_id}", cost=cost,
                              deadline=deadline, band=BAND_REALTIME,
                              action=send)

    def _handle_retx_request(self, message: RetxRequestMsg,
                             source_address: int) -> None:
        """Serve retransmissions directly (no decoupled transmitter state)."""
        if self.role is not Role.PRIMARY or message.object_id not in self.store:
            return
        self.retx_requests_served += 1
        record = self.store.get(message.object_id)
        self._schedule_coupled_send(record)
