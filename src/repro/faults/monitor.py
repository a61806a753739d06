"""Online invariant checking: flag violations *while the run executes*.

The post-hoc checkers (:mod:`repro.consistency.checker`) answer "did this
finished run stay consistent?"; the :class:`InvariantMonitor` answers it
live.  It subscribes to the tracer (seeing every record regardless of the
storage filter) and watches three invariants:

- **temporal window** — every version the primary wrote more than
  ``δ_i`` (+ a small provisioning grace) ago must have reached the backup:
  the online form of ``W_B(t) ≥ W_P(t - δ_i)``.  Vacuous while no backup
  exists (post-failover, pre-recruitment).
- **split brain** — at most one live server holds the PRIMARY role.
- **failover deadline** — after a primary crash with a live backup,
  the failover must happen within the configured detection bound
  (Section 4.4) plus a margin.
- **replica staleness** — no read served by a read replica
  (:mod:`repro.replicas`) may exceed its object's registered δ^B: every
  ``read_served`` record's delivered staleness is checked against the
  bound it was served under.

Violations are collected on :attr:`InvariantMonitor.violations`, traced as
``invariant_violation`` records, and optionally reported through a callback
— all at the virtual instant they are *detected*, not after the run.

Servers additionally surface *degraded* states — conditions that are not
invariant violations but that an operator must see: ``replication_degraded``
(registration replication exhausted its retries; the backup is silently
dropping that object's updates) and ``client_response_degraded`` (the eager
baseline flushed a deferred write because its backup died unacked).  The
monitor collects these on :attr:`InvariantMonitor.degraded` — separate from
:attr:`violations`, so a chaos run that *expects* degradation still reports
zero unexpected violations.

Trace categories: ``invariant_violation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.consistency.timestamps import UncoveredWrites
from repro.core.group import ReplicationGroup
from repro.core.server import Role
from repro.sim.trace import TraceRecord

_EPSILON = 1e-9

#: Invariant kinds (values of ``InvariantViolation.kind``).
TEMPORAL_WINDOW = "temporal_window"
SPLIT_BRAIN = "split_brain"
MISSED_FAILOVER = "missed_failover"
REPLICA_STALENESS = "replica_staleness"

#: Degraded-state kinds (collected on ``InvariantMonitor.degraded``; these
#: are observability findings, not invariant violations).
DEGRADED_KINDS = ("replication_degraded", "client_response_degraded")

#: The categories ``InvariantMonitor._on_record`` acts on; it drops the rest
#: (``job_*``, ``link_*``: most of a monitored run) before its compare chain.
_WATCHED = frozenset({
    "primary_write", "backup_apply", "server_crash", "failover", "recruited",
    "reattached", "read_served", *DEGRADED_KINDS, "server_recover",
    "cluster_place", "migration_freeze", "migration_commit",
    "migration_abort", "window_degraded", "window_restored"})


@dataclass(frozen=True)
class InvariantViolation:
    """One invariant violation, stamped with its detection time."""

    time: float
    kind: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"time": self.time, "kind": self.kind, **self.details}


def kind_counts(findings: List[InvariantViolation]) -> Dict[str, int]:
    """Histogram kind -> count, kinds in first-seen order."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.kind] = counts.get(finding.kind, 0) + 1
    return counts


def migrating_ids(record: TraceRecord) -> List[int]:
    """The object ids a ``migration_*`` record names (its ``ids`` field)."""
    text = record.get("ids", "")
    return [int(part) for part in text.split(",")] if text else []


class TraceMonitor:
    """What every tracer-subscribing monitor shares: the subscription, the
    findings lists, and how a violation is emitted.

    A subclass supplies ``_on_record`` and calls :meth:`_emit`; the run
    harness reads ``violations`` / ``degraded`` off every monitor it
    attached and merges them into the run's one findings list.
    """

    def __init__(self, sim: Any,
                 on_violation: Optional[Callable[[InvariantViolation],
                                                 None]] = None) -> None:
        self.sim = sim
        self.on_violation = on_violation
        self.violations: List[InvariantViolation] = []
        #: Degraded-state findings (see module docstring) — observability,
        #: not violations; :meth:`degraded_counts` summarises them.
        self.degraded: List[InvariantViolation] = []
        self._attached = False

    def attach(self) -> None:
        """Start observing the deployment's trace (idempotent)."""
        if self._attached:
            return
        self._attached = True
        self.sim.trace.subscribe(self._on_record)

    def detach(self) -> None:
        if not self._attached:
            return
        self._attached = False
        self.sim.trace.unsubscribe(self._on_record)

    def violation_counts(self) -> Dict[str, int]:
        """Histogram kind -> count (diagnostics and reports)."""
        return kind_counts(self.violations)

    def degraded_counts(self) -> Dict[str, int]:
        """Histogram kind -> count of collected degraded states."""
        return kind_counts(self.degraded)

    def _on_record(self, record: TraceRecord) -> None:
        raise NotImplementedError

    def _emit(self, kind: str, **details: Any) -> None:
        violation = InvariantViolation(self.sim.now, kind, details)
        self.violations.append(violation)
        self.sim.trace.record("invariant_violation", kind=kind, **details)
        if self.on_violation is not None:
            self.on_violation(violation)


class InvariantMonitor(TraceMonitor):
    """Watches one replication group's trace for invariant violations,
    online.

    ``service`` is a :class:`~repro.core.group.ReplicationGroup`: a pair
    deployment, or one shard of a sharded cluster — in which case
    member-scoping (below) confines every check to that group's servers
    and the shared trace stream is demultiplexed by membership.
    """

    def __init__(self, service: ReplicationGroup,
                 grace: Optional[float] = None,
                 failover_margin: float = 0.1,
                 on_violation: Optional[Callable[[InvariantViolation],
                                                 None]] = None) -> None:
        super().__init__(service.sim, on_violation)
        self.service = service
        self.failover_margin = failover_margin
        config = service.config
        specs = service.registered_specs()
        #: Provisioning allowance on top of δ_i: link delay plus worst-case
        #: apply queueing at the backup (all objects applying back-to-back).
        self.grace = (grace if grace is not None else
                      config.ell + max(8, len(specs)) * config.apply_cost_base)
        self._windows = self._registered_windows()
        #: Per object: the writes no backup apply has covered yet.
        self._uncovered: Dict[int, UncoveredWrites] = {}
        self._timer_armed: Set[int] = set()
        self._split_check_pending = False
        self._flagged_primaries: frozenset = frozenset()
        self._last_failover_at: Optional[float] = None

    def attach(self) -> None:
        """Start observing; objects registered since construction are
        picked up here."""
        if not self._attached:
            self._windows.update(self._registered_windows())
        super().attach()

    def _registered_windows(self) -> Dict[int, float]:
        return {spec.object_id: spec.window
                for spec in self.service.registered_specs()}

    # ------------------------------------------------------------------
    # Trace dispatch
    # ------------------------------------------------------------------

    def _on_record(self, record: TraceRecord) -> None:
        category = record.category
        if category not in _WATCHED:
            return
        if category == "primary_write":
            self._on_primary_write(record)
        elif category == "backup_apply":
            self._on_backup_apply(record)
        elif category == "server_crash":
            self._on_server_crash(record)
        elif category == "failover":
            if not self._is_member(record.get("new_primary")):
                return
            self._last_failover_at = record.time
            # The old primary's unreplicated writes died with it; window
            # accounting restarts against the new primary's stream.
            self._uncovered.clear()
            self._schedule_split_check()
        elif category in ("recruited", "reattached"):
            if not self._is_member(record.get("server")):
                return
            # Recruitment re-baselines the backup via the state-transfer
            # snapshot; writes pending from the backup-less interval are
            # covered by it, so window accounting restarts here (otherwise
            # a timer expiring in the few ms before the snapshot applies
            # raises a spurious violation).
            self._uncovered.clear()
            self._schedule_split_check()
        elif category == "read_served":
            self._on_read_served(record)
        elif category in DEGRADED_KINDS:
            if self._is_member(record.get("server")):
                self.degraded.append(InvariantViolation(
                    record.time, category, record.fields))
        elif category == "server_recover":
            if self._is_member(record.get("server")):
                self._schedule_split_check()
        elif category == "cluster_place":
            # This group was (re-)placed onto fresh hosts: new windows may
            # have registered, the snapshot transfer re-baselines pending
            # writes, and the membership just changed under the split check.
            if record.get("group") == self.service.service_name:
                self._windows.update(self._registered_windows())
                self._uncovered.clear()
                self._schedule_split_check()
        elif category == "migration_freeze":
            # Our objects are leaving: stop charging their writes to this
            # group's window accounting (the snapshot injection at the
            # destination is that group's monitor's business, and
            # ``primary_write`` records carry no server identity to demux
            # by — membership of ``_windows`` is the demux).
            if record.get("source") == self.service.service_name:
                for object_id in migrating_ids(record):
                    self._windows.pop(object_id, None)
                    self._uncovered.pop(object_id, None)
        elif category in ("migration_commit", "migration_abort"):
            # Ownership settled (either way): rebuild the window table from
            # what this group *actually* registers now — commit moved
            # objects in/out, abort returned them to the source.
            name = self.service.service_name
            if name in (record.get("source"), record.get("dest")):
                self._windows = self._registered_windows()
                self._uncovered.clear()
        elif category in ("window_degraded", "window_restored"):
            # Overload shedding renegotiated an object's δ: enforce the
            # *new* contract from this instant (past pending writes were
            # admitted under the old one; re-baseline).
            if record.get("group") == self.service.service_name:
                object_id = record["object"]
                if object_id in self._windows:
                    self._windows[object_id] = record["window"]
                    self._uncovered.pop(object_id, None)

    # -- temporal window ---------------------------------------------------

    def _on_primary_write(self, record: TraceRecord) -> None:
        object_id = record["object"]
        if object_id in self._windows:
            self._uncovered.setdefault(object_id, UncoveredWrites()).append(
                record.time)
            self._arm_window_timer(object_id)

    def _on_backup_apply(self, record: TraceRecord) -> None:
        uncovered = self._uncovered.get(record["object"])
        if uncovered is not None:
            uncovered.cover(record["write_time"])
            # An apply that ended an episode re-arms for the next one.
            self._arm_window_timer(record["object"])

    def _deadline(self, object_id: int) -> float:
        uncovered = self._uncovered.get(object_id)
        return (math.inf if uncovered is None else
                uncovered.oldest + self._windows[object_id] + self.grace)

    def _arm_window_timer(self, object_id: int) -> None:
        """Wake when the oldest uncovered write falls due.  No timer runs
        while that write is overdue (its episode is open and reported), so
        an expiry that finds it overdue opens a new episode."""
        deadline = self._deadline(object_id)
        if (object_id in self._timer_armed
                or not self.sim.now + _EPSILON < deadline < math.inf):
            return
        self._timer_armed.add(object_id)
        self.sim.schedule(deadline - self.sim.now, self._check_window,
                          object_id)

    def _check_window(self, object_id: int) -> None:
        self._timer_armed.discard(object_id)
        window = self._windows.get(object_id)
        if window is None:
            # The object left this deployment (migration froze it) between
            # arming the timer and its expiry; nothing to check here.
            self._uncovered.pop(object_id, None)
            return
        now = self.sim.now
        if self._deadline(object_id) <= now + _EPSILON:
            uncovered = self._uncovered[object_id]
            if self.service.current_backup() is None:
                # No backup to be consistent with: the invariant is vacuous
                # until recruitment finishes (single-failure assumption),
                # so what fell due meanwhile is forgiven.
                uncovered.cover(now - window - self.grace)
            else:
                self._emit(TEMPORAL_WINDOW, object=object_id,
                           write_time=uncovered.oldest, window=window,
                           lateness=now - uncovered.oldest - window)
        self._arm_window_timer(object_id)

    # -- replica staleness -------------------------------------------------

    def _on_read_served(self, record: TraceRecord) -> None:
        # Replicas are not group members, so the usual server demux does
        # not apply; replica records carry the service name they
        # subscribed under instead.
        if record.get("service") != self.service.service_name:
            return
        staleness = record.get("staleness")
        bound = record.get("bound")
        if staleness is None or bound is None:
            return
        if staleness > bound + _EPSILON:
            self._emit(REPLICA_STALENESS, object=record.get("object"),
                       server=record.get("server"), staleness=staleness,
                       bound=bound, excess=staleness - bound)

    # -- split brain -------------------------------------------------------

    def _schedule_split_check(self) -> None:
        # Role flips happen *around* the trace record inside one event;
        # check after the event completes so we see the settled state.
        if self._split_check_pending:
            return
        self._split_check_pending = True
        self.sim.schedule(0.0, self._check_split_brain)

    def _is_member(self, server_name: Any) -> bool:
        """Whether a trace record's server identity belongs to this
        deployment (always true for single-group services; the demux
        predicate for cluster group views sharing one trace stream)."""
        return any(server.name == server_name
                   for server in self.service.members)

    def _check_split_brain(self) -> None:
        self._split_check_pending = False
        primaries = frozenset(
            server.name for server in self.service.members
            if server.alive and server.role is Role.PRIMARY)
        if len(primaries) >= 2 and primaries != self._flagged_primaries:
            self._flagged_primaries = primaries
            self._emit(SPLIT_BRAIN, primaries=sorted(primaries))
        elif len(primaries) < 2:
            self._flagged_primaries = frozenset()

    # -- failover deadline -------------------------------------------------

    def _on_server_crash(self, record: TraceRecord) -> None:
        if not self._is_member(record.get("server")):
            return
        self._schedule_split_check()
        if record.get("role") != Role.PRIMARY.value:
            return
        self._uncovered.clear()
        if not self.service.config.failover_enabled:
            return
        if not self._was_authoritative(record.get("server")):
            # A deposed split-brain primary died; the service already moved
            # on, so nobody owes a failover for this crash.
            return
        backup = self.service.current_backup()
        if backup is None:
            return
        deadline = (self.service.config.failure_detection_latency()
                    + self.failover_margin)
        self.sim.schedule(deadline, self._check_failover, record.time,
                          backup.name)

    def _was_authoritative(self, server_name: Any) -> bool:
        """Whether the named server is the one the name file points at."""
        published = self.service.name_service.peek(self.service.service_name)
        if published is None:
            return False
        return any(server.name == server_name
                   and server.host.address == published
                   for server in self.service.members)

    def _check_failover(self, crash_time: float, backup_name: str) -> None:
        if (self._last_failover_at is not None
                and self._last_failover_at >= crash_time):
            return
        backup = next((server for server in self.service.members
                       if server.name == backup_name), None)
        if backup is None or not backup.alive:
            return  # the would-be successor died too; nobody could promote
        self._emit(MISSED_FAILOVER, crash_time=crash_time,
                   backup=backup_name,
                   deadline=crash_time
                   + self.service.config.failure_detection_latency()
                   + self.failover_margin)
