"""Chaos run execution and deterministic JSON reporting.

:func:`run_chaos` executes one catalogue scenario through the experiments
harness with its fault schedule armed and the invariant monitor attached;
:func:`report_dict` flattens the outcome — the fault log as applied, every
violation, the performability metrics, fabric counters, and a SHA-256 trace
digest — into plain data that :func:`repro.metrics.stable_dumps` serialises
byte-identically across runs of the same ``(scenario, seed)``.

The flattening goes through :class:`repro.parallel.RunOutcome`, the
picklable rendering of a finished run, which is what lets
:func:`run_matrix` fan the whole catalogue out across worker processes
(``jobs > 1``) and still emit documents byte-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.experiments.harness import RunResult, run_scenario
from repro.faults.scenarios import SCENARIOS, ChaosScenario, build
from repro.metrics.jsonio import jsonable
from repro.parallel import RunOutcome, RunSpec, outcome_from_result, run_specs


@dataclass
class ChaosRunResult:
    """A finished chaos run: the scenario and the harness result."""

    scenario: ChaosScenario
    seed: int
    result: RunResult

    @property
    def violations(self) -> List[Any]:
        return self.result.violations

    def unexpected_violations(self) -> List[Any]:
        """Violations whose kind the scenario did not set out to provoke."""
        expected = set(self.scenario.expected_violations)
        return [violation for violation in self.violations
                if violation.kind not in expected]


def run_chaos(name: str, seed: int = 0, warmup: float = 2.0,
              scenario: Optional[ChaosScenario] = None) -> ChaosRunResult:
    """Run one chaos scenario (by catalogue name, or a prebuilt one)."""
    chaos = scenario if scenario is not None else build(name, seed)
    result = run_scenario(chaos.workload, warmup=warmup,
                          fault_schedule=chaos.schedule, monitor=True)
    return ChaosRunResult(scenario=chaos, seed=seed, result=result)


def chaos_spec(chaos: ChaosScenario, warmup: float = 2.0) -> RunSpec:
    """The picklable run request for one catalogue scenario."""
    return RunSpec(scenario=chaos.workload, warmup=warmup, monitor=True,
                   fault_schedule=chaos.schedule, key=(chaos.name,))


def outcome_report(chaos: ChaosScenario, seed: int,
                   outcome: RunOutcome) -> Dict[str, Any]:
    """Flatten one chaos outcome into deterministic, JSON-ready data."""
    metrics = outcome.metrics
    expected = set(chaos.expected_violations)
    # Read-path numbers appear only when the workload ran readers, so
    # replica-free chaos reports stay byte-identical to their history.
    read_metrics: Dict[str, Any] = {}
    if metrics.read_staleness.count:
        read_metrics = {
            "read_throughput": metrics.read_throughput,
            "p99_read_staleness": metrics.read_staleness.p99,
            "read_slo_violations": metrics.slo_violations,
            "fallback_rate": metrics.fallback_rate,
        }
    # Fast-path numbers appear only when the workload took fast replies or
    # flushed degraded completions, for the same byte-stability reason.
    fastpath_metrics: Dict[str, Any] = {}
    if metrics.fast_response.count or metrics.degraded_responses:
        fastpath_metrics = {
            "fastpath_hit_rate": metrics.fastpath_hit_rate,
            "fast_mean_response": metrics.fast_response.mean,
            "deferred_mean_response": metrics.deferred_response.mean,
            "degraded_responses": metrics.degraded_responses,
        }
    invariants: Dict[str, Any] = {
        "violations": jsonable(outcome.violations),
        "violation_counts": dict(outcome.violation_counts),
        "unexpected": jsonable(
            [violation for violation in outcome.violations
             if violation["kind"] not in expected]),
    }
    if outcome.degraded_counts:
        invariants["degraded_counts"] = dict(outcome.degraded_counts)
    return {
        "scenario": {
            "name": chaos.name,
            "description": chaos.description,
            "seed": seed,
            "horizon": chaos.workload.horizon,
            "n_objects": chaos.workload.n_objects,
            "expected_violations": list(chaos.expected_violations),
        },
        "faults": {
            "scheduled": chaos.schedule.describe(),
            "applied": list(outcome.faults_applied),
        },
        "invariants": invariants,
        "metrics": jsonable({
            "admitted": metrics.admitted,
            "mean_response": metrics.response.mean,
            "p95_response": metrics.response.p95,
            "starved_writes": metrics.starved_writes,
            "avg_max_distance": metrics.avg_max_distance,
            "avg_inconsistency": metrics.avg_inconsistency,
            "delivery_rate": metrics.delivery_rate,
            "duplicate_deliveries": outcome.duplicate_deliveries,
            **read_metrics,
            **fastpath_metrics,
        }),
        "network": dict(outcome.network),
        "trace_digest": outcome.trace_digest,
    }


def report_dict(run: ChaosRunResult) -> Dict[str, Any]:
    """Flatten one live chaos run into deterministic, JSON-ready data."""
    return outcome_report(run.scenario, run.seed,
                          outcome_from_result(run.result))


def run_matrix(names: Optional[Iterable[str]] = None,
               seed: int = 0, jobs: int = 1) -> Dict[str, Dict[str, Any]]:
    """Run several catalogue scenarios and report each (name -> report).

    With ``jobs > 1`` the scenarios run across worker processes; reports
    are byte-identical to a serial matrix for any worker count.
    """
    selected = sorted(names) if names is not None else sorted(SCENARIOS)
    catalogue = [build(name, seed) for name in selected]
    outcomes = run_specs([chaos_spec(chaos) for chaos in catalogue],
                         jobs=jobs)
    return {chaos.name: outcome_report(chaos, seed, outcome)
            for chaos, outcome in zip(catalogue, outcomes)}
