"""Eager replication with the commutative/timestamp-stable fast path.

:class:`FastPathEagerServer` keeps the eager baseline's synchronous
replication — every write is pushed to the backup immediately and tracked
until the ack — but answers the client *before* the ack whenever
:class:`~repro.core.fastpath.FastPathPolicy` says the write is safe to
answer early:

- **commute** — no constrained partner object has witnessed unsynced
  updates (per-object LWW snapshots commute trivially; only registered
  :class:`~repro.core.spec.InterObjectConstraint` pairs couple objects);
- **stable** — the write's source timestamp is at or below the backup's
  acked source-time high-water mark, carried on every
  :class:`~repro.core.rtpb_protocol.UpdateAckMsg`.

Non-qualifying writes defer until the ack, exactly as in
:class:`~repro.baselines.eager.EagerServer`.

Failover drains the witness set before fast replies resume: a promoted (or
freshly re-paired) primary reseeds it from its store once the backup
joins, and keeps the fast path off until every reseeded version is acked —
so no client is answered early against a backup that has not caught up.
The witness set and drain protocol live in :mod:`repro.core.fastpath`;
this module wires them into the write, ack and membership paths.

Selecting the class is the switch: ``RTPBService(server_class=
FastPathEagerServer)`` (``replication="eager_fastpath"`` in a scenario) runs
every role on it, so a post-failover primary keeps the same semantics;
:class:`~repro.baselines.eager.EagerServer` is the same discipline with the
fast path off.

Trace categories: ``fastpath_commit``, ``fastpath_drain``,
``client_response`` (with a ``path`` field: ``fast`` / ``deferred``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.baselines.eager import EagerServer
from repro.core.admission import AdmissionDecision
from repro.core.fastpath import FastPathPolicy, WitnessSet
from repro.core.object_store import ObjectRecord
from repro.core.rtpb_protocol import UpdateAckMsg
from repro.core.spec import InterObjectConstraint


class FastPathEagerServer(EagerServer):
    """Eager replica with the CURP-style commutative/stable fast path."""

    _deferred_response_fields = {"path": "deferred"}

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self.witness = WitnessSet()
        self._policy = FastPathPolicy()
        self._policy_stale = True
        #: While draining (post-failover / post-recruit), every write takes
        #: the defer-until-ack path; fast replies resume only once the
        #: backup has acked every reseeded witness entry.
        self._draining = False
        self.fastpath_fast_replies = 0
        self.fastpath_deferred_writes = 0

    # -- policy ------------------------------------------------------------

    def add_constraint(self, constraint: InterObjectConstraint
                       ) -> AdmissionDecision:
        decision = super().add_constraint(constraint)
        if decision.accepted:
            self._policy_stale = True
        return decision

    def _current_policy(self) -> FastPathPolicy:
        if self._policy_stale:
            self._policy.refresh(self.admission.constraints())
            self._policy_stale = False
        return self._policy

    # -- write path --------------------------------------------------------

    def _after_primary_write(self, record: ObjectRecord, issue_time: float,
                             on_complete: Optional[Callable[[float], None]]
                             ) -> None:
        object_id = record.spec.object_id
        rule = None
        if not self._draining and self.peer_address is not None:
            rule = self._current_policy().qualify(
                object_id, record.source_time, self.witness)
        self.witness.witness(object_id, record.seq, record.source_time)
        if rule is None:
            self.fastpath_deferred_writes += 1
            self._defer_until_ack(record, issue_time, on_complete)
            return
        # Qualified: answer now, replicate in the background.  The pending
        # entry (completed=True) keeps the retry loop alive until the ack.
        self.fastpath_fast_replies += 1
        response = self.sim.now - issue_time
        self.sim.trace.record("fastpath_commit", object=object_id,
                              seq=record.seq, rule=rule)
        self.sim.trace.record("client_response", object=object_id,
                              issue=issue_time, response=response,
                              path="fast")
        if on_complete is not None:
            on_complete(response)
        self._defer_until_ack(record, issue_time, None, completed=True)

    # -- ack path ----------------------------------------------------------

    def _on_update_ack(self, message: UpdateAckMsg,
                       source_address: int) -> None:
        super()._on_update_ack(message, source_address)
        self.witness.ack(message.object_id, message.seq, message.high_water)
        if self._draining and not self.witness.any_unsynced():
            self._finish_drain()

    # -- failover drain ----------------------------------------------------

    def _begin_drain(self, reason: str) -> None:
        self._draining = True
        self.witness.clear()
        self.sim.trace.record("fastpath_drain", server=self.name,
                              phase="start", reason=reason)

    def _finish_drain(self) -> None:
        if not self._draining:
            return
        self._draining = False
        self.sim.trace.record("fastpath_drain", server=self.name,
                              phase="complete")

    def _on_failover(self) -> None:
        # The old primary's witnesses died with it: nothing is provably synced.
        self._begin_drain("failover")

    def _on_backup_lost(self) -> None:
        if not self._draining:
            self._begin_drain("backup_lost")
        super()._on_backup_lost()

    def _on_backup_joined(self) -> None:
        """Witness every written object's current version for the drain:
        the retried snapshots of :meth:`EagerServer._on_backup_joined` are
        in flight, and their acks retire these entries.  An empty store
        drains immediately."""
        super()._on_backup_joined()
        self.witness.clear()
        pending = 0
        for record in self.store:
            if record.seq > 0:
                self.witness.witness(record.spec.object_id, record.seq,
                                     record.source_time)
                pending += 1
        self.sim.trace.record("fastpath_drain", server=self.name,
                              phase="reseed", pending=pending)
        if not self.witness.any_unsynced():
            self._finish_drain()

    def _on_recovered(self) -> None:
        self.witness.clear()
        self._draining = False
        self._policy_stale = True
