"""Admission control (Section 4.2).

Before an object enters the service the primary checks, in order:

1. ``p_i ≤ δ_i^P`` — the client writes often enough for the primary's image
   to track the world (Theorem 1 with the DCS zero-variance discipline).
2. ``δ_i = δ_i^B - δ_i^P > ℓ`` — the primary/backup window is physically
   achievable given the delay bound.
3. The update-transmission task (period ``(δ_i - ℓ)/slack``, cost from the
   object size) is schedulable together with every existing update task —
   by default the paper's rate-monotonic utilisation test.

Rejections carry a machine-readable reason and, where computable, a
*suggestion*: the alternative QoS the client could negotiate for ("The
primary can provide feedback so that the client can negotiate for an
alternative quality of service").

Inter-object constraints are converted to per-object period caps
(Section 3 / 4.2) and folded into the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.consistency.interobject import interobject_to_external
from repro.core.spec import InterObjectConstraint, ObjectSpec, ServiceConfig
from repro.errors import AdmissionRejected, ReplicationError, UnknownObjectError
from repro.sched.analysis import rm_schedulable_exact, rm_utilization_test
from repro.sched.task import Task

#: Machine-readable rejection reasons.
REASON_CLIENT_PERIOD = "client-period-exceeds-primary-constraint"
REASON_WINDOW_TOO_SMALL = "window-not-larger-than-delay-bound"
REASON_UNSCHEDULABLE = "update-task-set-unschedulable"
REASON_UNKNOWN_OBJECT = "constraint-references-unregistered-object"
REASON_INTEROBJECT_PERIOD = "client-period-exceeds-interobject-constraint"
REASON_INTEROBJECT_UNSCHEDULABLE = "interobject-tightening-unschedulable"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of evaluating one registration or constraint."""

    accepted: bool
    reason: str = "ok"
    #: Suggested alternative QoS (e.g. {"delta_backup": 0.25}) when the
    #: controller can compute one.
    suggestion: Optional[Dict[str, float]] = None
    #: The transmission period the object was (or would be) granted.
    update_period: Optional[float] = None
    #: The transmission CPU cost used in the schedulability test.
    update_cost: Optional[float] = None


@dataclass
class _AdmittedObject:
    spec: ObjectSpec
    update_period: float
    update_cost: float


class AdmissionController:
    """The primary's gatekeeper over registered objects."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self._admitted: Dict[int, _AdmittedObject] = {}
        self._constraints: List[InterObjectConstraint] = []
        self.evaluations = 0
        self.rejections = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def admitted_count(self) -> int:
        return len(self._admitted)

    def admitted_ids(self) -> List[int]:
        return list(self._admitted.keys())

    def update_period_of(self, object_id: int) -> float:
        entry = self._admitted.get(object_id)
        if entry is None:
            raise UnknownObjectError(f"object {object_id} not admitted")
        return entry.update_period

    def planned_utilization(self) -> float:
        """Σ cost/period over admitted update tasks, added left to right.

        Not ``sum()``: from Python 3.12 it compensates float rounding, so
        the autoscaler would trace a different last digit of the same
        admissions on each interpreter version.
        """
        total = 0.0
        for entry in self._admitted.values():
            total += entry.update_cost / entry.update_period
        return total

    # ------------------------------------------------------------------
    # Object registration
    # ------------------------------------------------------------------

    def evaluate(self, spec: ObjectSpec) -> AdmissionDecision:
        """Check ``spec`` without admitting it."""
        self.evaluations += 1
        cost = self.config.tx_cost(spec.size_bytes)

        if not self.config.admission_enabled:
            # Admission disabled (the Figure 7/10 configuration): grant the
            # period the window implies, with only the hard physical floor
            # (the period must be positive) enforced.
            period = max(spec.window - self.config.ell, 1e-6) / self.config.slack_factor
            return AdmissionDecision(True, reason="admission-disabled",
                                     update_period=period, update_cost=cost)

        if spec.client_period > spec.delta_primary + 1e-12:
            self.rejections += 1
            return AdmissionDecision(
                False, REASON_CLIENT_PERIOD,
                suggestion={"client_period": spec.delta_primary})

        if spec.window <= self.config.ell + 1e-12:
            self.rejections += 1
            return AdmissionDecision(
                False, REASON_WINDOW_TOO_SMALL,
                suggestion={"delta_backup":
                            spec.delta_primary + 2.0 * self.config.ell})

        period = self.config.update_period(spec)
        period = self._cap_for_constraints(spec.object_id, period)
        candidate = Task(name=f"tx-{spec.object_id}", period=period, wcet=cost)
        if not self._schedulable_with(candidate):
            self.rejections += 1
            return AdmissionDecision(
                False, REASON_UNSCHEDULABLE,
                suggestion=self._suggest_window(spec, cost),
                update_period=period, update_cost=cost)
        return AdmissionDecision(True, update_period=period, update_cost=cost)

    def admit(self, spec: ObjectSpec) -> AdmissionDecision:
        """Evaluate and, on success, record the object as admitted."""
        decision = self.evaluate(spec)
        if decision.accepted:
            self._admitted[spec.object_id] = _AdmittedObject(
                spec=spec,
                update_period=decision.update_period,
                update_cost=decision.update_cost)
        return decision

    def admit_or_raise(self, spec: ObjectSpec) -> AdmissionDecision:
        """Like :meth:`admit`, raising
        :class:`~repro.errors.AdmissionRejected` (reason + suggestion
        attached) instead of returning a rejection — the exception-style
        API for callers that treat rejection as exceptional."""
        decision = self.admit(spec)
        if not decision.accepted:
            raise AdmissionRejected(
                f"object {spec.object_id} rejected: {decision.reason}",
                reason=decision.reason, suggestion=decision.suggestion)
        return decision

    def remove(self, object_id: int) -> None:
        self._admitted.pop(object_id, None)
        self._constraints = [constraint for constraint in self._constraints
                             if not constraint.involves(object_id)]

    # ------------------------------------------------------------------
    # Inter-object constraints
    # ------------------------------------------------------------------

    def add_constraint(self, constraint: InterObjectConstraint
                       ) -> AdmissionDecision:
        """Admit an inter-object constraint between two admitted objects.

        Converts ``δ_ij`` into two external period caps, tightens the two
        transmission periods if needed, and re-runs the schedulability test
        on the tightened set.  On rejection nothing changes.
        """
        self.evaluations += 1
        entries = []
        for object_id in (constraint.object_i, constraint.object_j):
            entry = self._admitted.get(object_id)
            if entry is None:
                self.rejections += 1
                return AdmissionDecision(False, REASON_UNKNOWN_OBJECT)
            entries.append(entry)

        externalized = interobject_to_external(
            constraint.object_i, constraint.object_j, constraint.delta)
        caps = {constraint.object_i: externalized.period_cap_i,
                constraint.object_j: externalized.period_cap_j}

        # Primary side (Theorem 6 at the primary): the client periods
        # themselves must fit under δ_ij.
        for entry in entries:
            if entry.spec.client_period > caps[entry.spec.object_id] + 1e-12:
                self.rejections += 1
                return AdmissionDecision(
                    False, REASON_INTEROBJECT_PERIOD,
                    suggestion={"delta": max(e.spec.client_period
                                             for e in entries)})

        # Backup side: tighten transmission periods to the cap and retest.
        tightened: Dict[int, float] = {}
        for entry in entries:
            cap = caps[entry.spec.object_id] / self.config.slack_factor
            tightened[entry.spec.object_id] = min(entry.update_period, cap)
        if not self._schedulable_all(overrides=tightened):
            self.rejections += 1
            return AdmissionDecision(
                False, REASON_INTEROBJECT_UNSCHEDULABLE,
                suggestion={"delta": constraint.delta * 2.0})

        for entry in entries:
            entry.update_period = tightened[entry.spec.object_id]
        self._constraints.append(constraint)
        return AdmissionDecision(True)

    def constraints(self) -> List[InterObjectConstraint]:
        return list(self._constraints)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _cap_for_constraints(self, object_id: int, period: float) -> float:
        for constraint in self._constraints:
            if constraint.involves(object_id):
                period = min(period,
                             constraint.delta / self.config.slack_factor)
        return period

    def _tasks(self, overrides: Optional[Dict[int, float]] = None
               ) -> List[Task]:
        overrides = overrides or {}
        tasks = [
            Task(name=f"tx-{entry.spec.object_id}",
                 period=overrides.get(entry.spec.object_id,
                                      entry.update_period),
                 wcet=entry.update_cost)
            for entry in self._admitted.values()
        ]
        if self.config.use_deferrable_server:
            # The RPC reservation is periodic demand like any other task.
            tasks.append(Task(name="rpc-reservation",
                              period=self.config.ds_period,
                              wcet=self.config.ds_budget))
        return tasks

    def _schedulable_with(self, candidate: Task) -> bool:
        tasks = self._tasks() + [candidate]
        return self._run_test(tasks)

    def _schedulable_all(self, overrides: Dict[int, float]) -> bool:
        return self._run_test(self._tasks(overrides))

    def _run_test(self, tasks: List[Task]) -> bool:
        if self.config.admission_test == "exact":
            return rm_schedulable_exact(tasks)
        return rm_utilization_test(tasks)

    def _suggest_window(self, spec: ObjectSpec,
                        cost: float) -> Optional[Dict[str, float]]:
        """Smallest δ^B that would make the new update task schedulable.

        Under the utilisation test the new task may use at most
        ``bound - U_existing``; invert ``cost/period`` for the period and
        the period for the window.  Returns None when the system is already
        saturated (no window helps).
        """
        from repro.units import utilization_bound_rm

        n = len(self._admitted) + 1
        headroom = utilization_bound_rm(n) - self.planned_utilization()
        if headroom <= 0:
            return None
        period_needed = cost / headroom
        window_needed = period_needed * self.config.slack_factor + self.config.ell
        return {"delta_backup": spec.delta_primary + window_needed * 1.01}
