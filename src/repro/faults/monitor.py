"""Online invariant checking: flag violations *while the run executes*.

The post-hoc checkers (:mod:`repro.consistency.checker`) answer "did this
finished run stay consistent?"; the :class:`InvariantMonitor` answers it
live.  It subscribes to the tracer once per deployment (seeing every
record of the categories it reads, regardless of the storage filter) and
watches, in every group of the deployment, these invariants:

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
from repro.sim.trace import TraceRecord, reads

_EPSILON = 1e-9

#: Invariant kinds (values of ``InvariantViolation.kind``).
TEMPORAL_WINDOW = "temporal_window"
SPLIT_BRAIN = "split_brain"
MISSED_FAILOVER = "missed_failover"
REPLICA_STALENESS = "replica_staleness"

#: Degraded-state kinds (collected on ``InvariantMonitor.degraded``; these
#: are observability findings, not invariant violations).
DEGRADED_KINDS = ("replication_degraded", "client_response_degraded")

#: The categories ``InvariantMonitor._on_record`` reads: exactly those
#: ``_GroupWatch.on_record`` compares.  Declared with ``reads``, so the
#: tracer hands the monitor nothing else and a monitored run builds no
#: ``job_*`` / ``link_*`` record it does not keep; tested again in
#: ``_on_record`` for a wrapper that subscribes it undeclared.
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

    A subclass supplies ``_on_record``, declaring the categories it reads
    with :func:`~repro.sim.trace.reads`, and calls :meth:`_emit`; the run
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

    def _emit(self, kind: str, group: Optional[str] = None,
              **details: Any) -> None:
        """Report a violation now; ``group`` names the group it belongs to
        in the finding's details (not in its trace record)."""
        violation = InvariantViolation(
            self.sim.now, kind,
            details if group is None else {**details, "group": group})
        self.violations.append(violation)
        self.sim.trace.record("invariant_violation", kind=kind, **details)
        if self.on_violation is not None:
            self.on_violation(violation)


class InvariantMonitor(TraceMonitor):
    """Watches every replication group of a deployment for invariant
    violations, online, through one trace subscription.

    ``deployment`` is anything with ``groups``: a pair or a single shard
    (one group), or a sharded cluster (one per shard).  Each group's checks
    run on its own :class:`_GroupWatch` and are scoped to its members, so
    two groups running one primary each are no split brain and a crash in
    group 3 charges nothing to group 7.  On a cluster every finding carries
    ``group=<name>`` in its details; :meth:`add_group` watches a group the
    cluster grew later (scale-out).

    Construct it after ``cluster.start()``: a group's window table is seeded
    from its registered specs, which exist only once the group is placed
    (re-placements are tracked through ``cluster_place`` records).
    """

    def __init__(self, deployment: Any,
                 grace: Optional[float] = None,
                 failover_margin: float = 0.1,
                 on_violation: Optional[Callable[[InvariantViolation],
                                                 None]] = None) -> None:
        super().__init__(deployment.sim, on_violation)
        self.failover_margin = failover_margin
        self._grace = grace
        #: A cluster's findings name their group; a lone group's do not.
        self._stamps = not isinstance(deployment, ReplicationGroup)
        self._watches: Dict[str, _GroupWatch] = {}
        #: The slot of the group each ``degraded`` finding belongs to.
        self._degraded_slots: List[int] = []
        for group in deployment.groups:
            self.add_group(group)

    @property
    def grace(self) -> float:
        """The first group's provisioning grace (a pair's only one)."""
        return next(iter(self._watches.values())).grace

    def add_group(self, group: ReplicationGroup) -> None:
        """Start watching a group.  Idempotent per group name, so a revived
        retired group keeps its original slot."""
        if group.name not in self._watches:
            self._watches[group.name] = _GroupWatch(self, group,
                                                    len(self._watches))

    def attach(self) -> None:
        """Start observing; objects registered since construction are
        picked up here."""
        if not self._attached:
            for watch in self._watches.values():
                watch.windows.update(watch.registered_windows())
        super().attach()

    def per_group_counts(self) -> Dict[str, Dict[str, int]]:
        """Histogram kind -> count for every group, in slot order."""
        # A lone group's findings carry no ``group``: all of them are its.
        return {name: kind_counts([
                    finding for finding in self.violations
                    if finding.details.get("group", name) == name])
                for name in self._watches}

    @reads(*_WATCHED)
    def _on_record(self, record: TraceRecord) -> None:
        if record.category in _WATCHED:
            for watch in self._watches.values():
                watch.on_record(record)

    def _add_degraded(self, finding: InvariantViolation, slot: int) -> None:
        """Keep ``degraded`` in time order, slot order within an instant
        (findings arrive in time order, so ``>=`` on time is "same instant")."""
        at = len(self.degraded)
        while (at and self.degraded[at - 1].time >= finding.time
               and self._degraded_slots[at - 1] > slot):
            at -= 1
        self.degraded.insert(at, finding)
        self._degraded_slots.insert(at, slot)


class _GroupWatch:
    """One group's invariant state inside an :class:`InvariantMonitor`:
    its window table, uncovered writes, armed timers, and the split-brain
    and failover bookkeeping."""

    def __init__(self, monitor: InvariantMonitor, group: ReplicationGroup,
                 slot: int) -> None:
        self.monitor = monitor
        self.sim = monitor.sim
        self.group = group
        self.slot = slot
        #: What the group's findings are stamped with (None: nothing).
        self.stamp = group.name if monitor._stamps else None
        config = group.config
        #: Provisioning allowance on top of δ_i: link delay plus worst-case
        #: apply queueing at the backup (all objects applying back-to-back).
        self.grace = (monitor._grace if monitor._grace is not None else
                      config.ell + max(8, len(group.registered_specs()))
                      * config.apply_cost_base)
        self.windows = self.registered_windows()
        #: Per object: the writes no backup apply has covered yet.
        self.uncovered: Dict[int, UncoveredWrites] = {}
        self.timer_armed: Set[int] = set()
        self.split_check_pending = False
        self.flagged_primaries: frozenset = frozenset()
        self.last_failover_at: Optional[float] = None

    def registered_windows(self) -> Dict[int, float]:
        return {spec.object_id: spec.window
                for spec in self.group.registered_specs()}

    def _emit(self, kind: str, **details: Any) -> None:
        self.monitor._emit(kind, group=self.stamp, **details)

    def on_record(self, record: TraceRecord) -> None:
        """Act on one record of a ``_WATCHED`` category."""
        category = record.category
        name = self.group.name
        if category == "primary_write":
            self._on_primary_write(record)
        elif category == "backup_apply":
            self._on_backup_apply(record)
        elif category == "server_crash":
            self._on_server_crash(record)
        elif category == "failover":
            if not self._is_member(record.get("new_primary")):
                return
            self.last_failover_at = record.time
            # The old primary's unreplicated writes died with it; window
            # accounting restarts against the new primary's stream.
            self.uncovered.clear()
            self._schedule_split_check()
        elif category in ("recruited", "reattached"):
            if not self._is_member(record.get("server")):
                return
            # Recruitment re-baselines the backup via the state-transfer
            # snapshot; writes pending from the backup-less interval are
            # covered by it, so window accounting restarts here (otherwise
            # a timer expiring in the few ms before the snapshot applies
            # raises a spurious violation).
            self.uncovered.clear()
            self._schedule_split_check()
        elif category == "read_served":
            self._on_read_served(record)
        elif category in DEGRADED_KINDS:
            if self._is_member(record.get("server")):
                details = record.fields
                if self.stamp is not None:
                    details.setdefault("group", self.stamp)
                self.monitor._add_degraded(
                    InvariantViolation(record.time, category, details),
                    self.slot)
        elif category == "server_recover":
            if self._is_member(record.get("server")):
                self._schedule_split_check()
        elif category == "cluster_place":
            # This group was (re-)placed onto fresh hosts: new windows may
            # have registered, the snapshot transfer re-baselines pending
            # writes, and the membership just changed under the split check.
            if record.get("group") == name:
                self.windows.update(self.registered_windows())
                self.uncovered.clear()
                self._schedule_split_check()
        elif category == "migration_freeze":
            # Our objects are leaving: stop charging their writes to this
            # group's window accounting (the snapshot injection at the
            # destination is that group's business, and ``primary_write``
            # records carry no server identity to demux by — membership of
            # ``windows`` is the demux).
            if record.get("source") == name:
                for object_id in migrating_ids(record):
                    self.windows.pop(object_id, None)
                    self.uncovered.pop(object_id, None)
        elif category in ("migration_commit", "migration_abort"):
            # Ownership settled (either way): rebuild the window table from
            # what this group *actually* registers now — commit moved
            # objects in/out, abort returned them to the source.
            if name in (record.get("source"), record.get("dest")):
                self.windows = self.registered_windows()
                self.uncovered.clear()
        elif category in ("window_degraded", "window_restored"):
            # Overload shedding renegotiated an object's δ: enforce the
            # *new* contract from this instant (past pending writes were
            # admitted under the old one; re-baseline).
            if record.get("group") == name:
                object_id = record["object"]
                if object_id in self.windows:
                    self.windows[object_id] = record["window"]
                    self.uncovered.pop(object_id, None)

    # -- temporal window ---------------------------------------------------

    def _on_primary_write(self, record: TraceRecord) -> None:
        object_id = record["object"]
        if object_id in self.windows:
            self.uncovered.setdefault(object_id, UncoveredWrites()).append(
                record.time)
            self._arm_window_timer(object_id)

    def _on_backup_apply(self, record: TraceRecord) -> None:
        uncovered = self.uncovered.get(record["object"])
        if uncovered is not None:
            uncovered.cover(record["write_time"])
            # An apply that ended an episode re-arms for the next one.
            self._arm_window_timer(record["object"])

    def _deadline(self, object_id: int) -> float:
        uncovered = self.uncovered.get(object_id)
        return (math.inf if uncovered is None else
                uncovered.oldest + self.windows[object_id] + self.grace)

    def _arm_window_timer(self, object_id: int) -> None:
        """Wake when the oldest uncovered write falls due.  No timer runs
        while that write is overdue (its episode is open and reported), so
        an expiry that finds it overdue opens a new episode."""
        deadline = self._deadline(object_id)
        if (object_id in self.timer_armed
                or not self.sim.now + _EPSILON < deadline < math.inf):
            return
        self.timer_armed.add(object_id)
        self.sim.schedule(deadline - self.sim.now, self._check_window,
                          object_id)

    def _check_window(self, object_id: int) -> None:
        self.timer_armed.discard(object_id)
        window = self.windows.get(object_id)
        if window is None:
            # The object left this group (migration froze it) between
            # arming the timer and its expiry; nothing to check here.
            self.uncovered.pop(object_id, None)
            return
        now = self.sim.now
        if self._deadline(object_id) <= now + _EPSILON:
            uncovered = self.uncovered[object_id]
            if self.group.current_backup() is None:
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
        if record.get("service") != self.group.name:
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
        if self.split_check_pending:
            return
        self.split_check_pending = True
        self.sim.schedule(0.0, self._check_split_brain)

    def _is_member(self, server_name: Any) -> bool:
        """Whether a trace record's server identity belongs to this group
        (the demux predicate for groups sharing one trace stream)."""
        return any(server.name == server_name
                   for server in self.group.members)

    def _check_split_brain(self) -> None:
        self.split_check_pending = False
        primaries = frozenset(
            server.name for server in self.group.members
            if server.alive and server.role is Role.PRIMARY)
        if len(primaries) >= 2 and primaries != self.flagged_primaries:
            self.flagged_primaries = primaries
            self._emit(SPLIT_BRAIN, primaries=sorted(primaries))
        elif len(primaries) < 2:
            self.flagged_primaries = frozenset()

    # -- failover deadline -------------------------------------------------

    def _on_server_crash(self, record: TraceRecord) -> None:
        if not self._is_member(record.get("server")):
            return
        self._schedule_split_check()
        if record.get("role") != Role.PRIMARY.value:
            return
        self.uncovered.clear()
        if not self.group.config.failover_enabled:
            return
        if not self._was_authoritative(record.get("server")):
            # A deposed split-brain primary died; the group already moved
            # on, so nobody owes a failover for this crash.
            return
        backup = self.group.current_backup()
        if backup is None:
            return
        deadline = (self.group.config.failure_detection_latency()
                    + self.monitor.failover_margin)
        self.sim.schedule(deadline, self._check_failover, record.time,
                          backup.name)

    def _was_authoritative(self, server_name: Any) -> bool:
        """Whether the named server is the one the name file points at."""
        published = self.group.name_service.peek(self.group.name)
        if published is None:
            return False
        return any(server.name == server_name
                   and server.host.address == published
                   for server in self.group.members)

    def _check_failover(self, crash_time: float, backup_name: str) -> None:
        if (self.last_failover_at is not None
                and self.last_failover_at >= crash_time):
            return
        backup = next((server for server in self.group.members
                       if server.name == backup_name), None)
        if backup is None or not backup.alive:
            return  # the would-be successor died too; nobody could promote
        self._emit(MISSED_FAILOVER, crash_time=crash_time,
                   backup=backup_name,
                   deadline=crash_time
                   + self.group.config.failure_detection_latency()
                   + self.monitor.failover_margin)
