"""Picklable run requests, and the two workers that run them.

A :class:`RunSpec` is everything one simulation run needs — the
scenario value (:class:`~repro.workload.scenarios.BaseScenario`, any
topology), an optional fault schedule, and the monitor/trace flags — as a
plain value that crosses a process boundary.  Each worker returns only
what its callers read, never the live deployment, whose object graph is
neither picklable nor worth shipping: :func:`measure` returns the run's
:class:`~repro.metrics.summary.RunMetrics`, all a figure or table plots;
:func:`execute` returns a :class:`RunOutcome` (metrics, counters, fault
log, findings and the trace digest), which :func:`run_document` renders
as the JSON every verb that prints runs writes.

Both are deterministic functions of the spec; an outcome's ``wall_s`` is
the only field two runs of the same spec may disagree on, measured per
worker so pool queueing never inflates it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Dict,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.metrics.jsonio import jsonable
from repro.metrics.summary import MetricsView, RunMetrics
from repro.workload.scenarios import BaseScenario

if TYPE_CHECKING:
    # Runtime imports stay local to the functions below: the experiments
    # package re-exports the figure sweeps, which import repro.parallel —
    # a module-level import here would close that cycle.
    from repro.experiments.harness import RunResult
    from repro.faults.schedule import FaultSchedule

#: Injectable worker stopwatch — a *reference* to ``time.perf_counter``,
#: so the wall clock never leaks into model code.
_STOPWATCH = time.perf_counter

RenderedT = TypeVar("RenderedT")


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, phrased as a picklable value.

    ``scenario`` is any topology's scenario value — a pair, a sharded
    cluster, an elastic cluster; it names its own build stages.
    """

    scenario: BaseScenario
    #: Seconds excluded from every metric at the head of the run.
    warmup: float = 2.0
    #: Attach the online invariant monitor (chaos runs).
    monitor: bool = False
    #: Keep every trace category instead of the metric allow-list.
    full_trace: bool = False
    fault_schedule: Optional[FaultSchedule] = None
    #: Caller bookkeeping (e.g. sweep coordinates); rides back verbatim
    #: on the outcome.  A run document names it as a mapping, so the
    #: command line keys its runs by ``(name, value)`` pairs.
    key: Optional[Tuple[Any, ...]] = None


@dataclass(frozen=True)
class RunOutcome(MetricsView):
    """The picklable rendering of one finished run (flat metric access as
    on ``RunResult``, through :class:`MetricsView`)."""

    scenario: BaseScenario
    metrics: RunMetrics
    events_executed: int
    peak_live_events: int
    trace_records: int
    #: SHA-256 over the retained trace (deterministic per spec).
    trace_digest: str
    #: Cluster runs: per-group metrics by group name (empty for a pair).
    per_group: Dict[str, RunMetrics] = field(default_factory=dict)
    #: Fabric counters (sent/delivered/dropped/duplicated/corrupted).
    network: Dict[str, int] = field(default_factory=dict)
    #: Updates applied more than once at the backup (duplication faults).
    duplicate_deliveries: int = 0
    #: JSON-safe timeline of the fault schedule, as written.
    faults_scheduled: List[Dict[str, Any]] = field(default_factory=list)
    #: JSON-safe log of faults actually applied, in firing order.
    faults_applied: List[Dict[str, Any]] = field(default_factory=list)
    #: Violations the online monitors flagged (``to_dict()`` form).
    violations: List[Dict[str, Any]] = field(default_factory=list)
    violation_counts: Dict[str, int] = field(default_factory=dict)
    #: Degraded-state findings (operator-visible, *not* violations).
    degraded_counts: Dict[str, int] = field(default_factory=dict)
    #: Worker-side wall time of the run, seconds.
    wall_s: float = 0.0
    key: Optional[Tuple[Any, ...]] = None
    #: The topology's summary of the run (``BaseScenario.summary``):
    #: placements and rejections of a cluster, the control plane's
    #: counters of an elastic one; empty for a pair.
    extra: Dict[str, Any] = field(default_factory=dict)


def outcome_from_result(result: RunResult, wall_s: float = 0.0,
                        key: Optional[Tuple[Any, ...]] = None) -> RunOutcome:
    """Flatten a live :class:`RunResult` into a picklable outcome."""
    from repro.faults.monitor import kind_counts
    from repro.metrics.collectors import duplicate_deliveries

    service = result.service
    fabric = service.fabric
    injector = result.injector
    violations = result.violations
    fingerprint = result.fingerprint
    return RunOutcome(
        scenario=result.scenario,
        metrics=result.metrics,
        events_executed=fingerprint.events_executed,
        peak_live_events=fingerprint.peak_live_events,
        trace_records=fingerprint.trace_records,
        trace_digest=fingerprint.digest,
        per_group=result.per_group,
        network={
            "messages_sent": fabric.messages_sent,
            "messages_delivered": fabric.messages_delivered,
            "messages_dropped": fabric.messages_dropped,
            "messages_duplicated": fabric.messages_duplicated,
            "messages_corrupted": fabric.messages_corrupted,
        },
        duplicate_deliveries=duplicate_deliveries(service),
        faults_scheduled=(injector.schedule.describe()
                          if injector is not None else []),
        faults_applied=list(injector.applied) if injector is not None else [],
        violations=[violation.to_dict() for violation in violations],
        violation_counts=kind_counts(violations),
        degraded_counts=kind_counts(result.degraded),
        wall_s=wall_s,
        key=key,
        extra=result.scenario.summary(result),
    )


def run_document(outcome: RunOutcome,
                 expected: Collection[str] = ()) -> Dict[str, Any]:
    """The JSON document of one finished run, the same under every verb.

    Findings whose kind is not in ``expected`` (a chaos scenario's
    declared kinds; none elsewhere) are listed again as ``unexpected``.
    """
    document: Dict[str, Any] = {
        "scenario": outcome.scenario,
        "key": dict(outcome.key or ()),
        "digest": outcome.trace_digest,
        "events": outcome.events_executed,
        "trace_records": outcome.trace_records,
        "metrics": outcome.metrics,
        "findings": {
            "violations": outcome.violations,
            "counts": outcome.violation_counts,
            "degraded_counts": outcome.degraded_counts,
            "unexpected": [finding for finding in outcome.violations
                           if finding["kind"] not in expected],
        },
        "faults": {"scheduled": outcome.faults_scheduled,
                   "applied": outcome.faults_applied},
        "network": outcome.network,
        "duplicate_deliveries": outcome.duplicate_deliveries,
        "extra": outcome.extra,
    }
    if outcome.per_group:
        document["per_group"] = outcome.per_group
    return jsonable(document)


def _finished(spec: RunSpec,
              render: Callable[[RunResult, float], RenderedT]) -> RenderedT:
    """Run ``spec``, keep what ``render`` makes of the run and its wall
    time, and free the run itself."""
    from repro.experiments.harness import run_scenario

    started = _STOPWATCH()
    result = run_scenario(spec.scenario, warmup=spec.warmup,
                          full_trace=spec.full_trace,
                          fault_schedule=spec.fault_schedule,
                          monitor=spec.monitor)
    rendered = render(result, _STOPWATCH() - started)
    # Free the finished run now: its graph is cyclic, sweeps pause the GC.
    del result
    gc.collect(0)
    return rendered


def execute(spec: RunSpec) -> RunOutcome:
    """Run one spec to its fingerprinted outcome (the worker behind every
    run document)."""
    return _finished(spec, lambda result, wall_s: outcome_from_result(
        result, wall_s=wall_s, key=spec.key))


def measure(spec: RunSpec) -> RunMetrics:
    """Run one spec to its metrics alone (the figure sweeps' worker): no
    digest, fault log or counters, which no table prints."""
    return _finished(spec, lambda result, _wall_s: result.metrics)
