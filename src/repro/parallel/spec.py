"""Picklable run requests and outcomes.

A :class:`RunSpec` is everything one simulation run needs — the
scenario value (:class:`~repro.workload.scenarios.BaseScenario`, any
topology), an optional fault schedule, and the monitor/trace flags — as a
plain value that crosses a process boundary.  :func:`execute` is the worker-side entry point: it runs the
spec through the experiments harness and returns a :class:`RunOutcome`,
the slim picklable rendering of the finished run (metrics, counters, and
the trace digest — *not* the live :class:`~repro.core.service.RTPBService`,
whose object graph is neither picklable nor worth shipping).

Both halves are deterministic functions of the spec: the wall-clock field
(``wall_s``) is the only thing two runs of the same spec may disagree on,
and it is measured per worker so pool queueing never inflates it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.metrics.summary import MetricsView, RunMetrics
from repro.workload.scenarios import BaseScenario

if TYPE_CHECKING:
    # Runtime imports stay local to the functions below: the experiments
    # package re-exports the figure sweeps, which import repro.parallel —
    # a module-level import here would close that cycle.
    from repro.experiments.harness import RunResult
    from repro.faults.schedule import FaultSchedule

#: Injectable worker stopwatch — a *reference* to ``time.perf_counter``,
#: so the wall clock never leaks into model code (DET001-clean).
_STOPWATCH = time.perf_counter


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
    #: on the outcome.
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
    #: Fabric counters (sent/delivered/dropped/duplicated/corrupted).
    network: Dict[str, int] = field(default_factory=dict)
    #: Updates applied more than once at the backup (duplication faults).
    duplicate_deliveries: int = 0
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
    #: The elastic control plane's JSON-safe migration/autoscale
    #: counters; empty on runs without a controller.
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
        network={
            "messages_sent": fabric.messages_sent,
            "messages_delivered": fabric.messages_delivered,
            "messages_dropped": fabric.messages_dropped,
            "messages_duplicated": fabric.messages_duplicated,
            "messages_corrupted": fabric.messages_corrupted,
        },
        duplicate_deliveries=duplicate_deliveries(service),
        faults_applied=list(injector.applied) if injector is not None else [],
        violations=[violation.to_dict() for violation in violations],
        violation_counts=kind_counts(violations),
        degraded_counts=kind_counts(result.degraded),
        wall_s=wall_s,
        key=key,
        extra=result.elastic_summary(),
    )


def execute(spec: RunSpec) -> RunOutcome:
    """Run one spec to completion (the process-pool worker entry point)."""
    from repro.experiments.harness import run_scenario

    started = _STOPWATCH()
    result = run_scenario(spec.scenario, warmup=spec.warmup,
                          full_trace=spec.full_trace,
                          fault_schedule=spec.fault_schedule,
                          monitor=spec.monitor)
    outcome = outcome_from_result(result, wall_s=_STOPWATCH() - started,
                                  key=spec.key)
    # Free the finished run now: its graph is cyclic, sweeps pause the GC.
    del result
    gc.collect(0)
    return outcome
