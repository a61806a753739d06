"""Chaos runs and their run documents.

:func:`run_matrix` runs catalogue scenarios through the experiments
harness, each with its fault schedule armed and the invariant monitor
attached, and renders every outcome with
:func:`repro.parallel.run_document` against the scenario's expected
finding kinds.  The outcomes are picklable, so the scenarios fan out
across worker processes (``jobs > 1``) and the documents stay
byte-identical to a serial run.  :func:`run_chaos` runs one scenario in
process and keeps the live result beside its document.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.experiments.harness import RunResult, run_scenario
from repro.faults.scenarios import SCENARIOS, ChaosScenario, build
from repro.parallel import RunSpec, outcome_from_result, run_document, run_specs


def chaos_spec(chaos: ChaosScenario, warmup: float = 2.0) -> RunSpec:
    """The picklable run request for one catalogue scenario."""
    return RunSpec(scenario=chaos.workload, warmup=warmup, monitor=True,
                   fault_schedule=chaos.schedule)


def run_chaos(name: str, seed: int = 0, warmup: float = 2.0
              ) -> Tuple[RunResult, Dict[str, Any]]:
    """Run one catalogue scenario in process: the live result and its run
    document."""
    chaos = build(name, seed)
    result = run_scenario(chaos.workload, warmup=warmup,
                          fault_schedule=chaos.schedule, monitor=True)
    return result, run_document(outcome_from_result(result),
                                chaos.expected_violations)


def run_matrix(names: Optional[Iterable[str]] = None, seed: int = 0,
               jobs: int = 1, warmup: float = 2.0) -> Dict[str, Dict[str, Any]]:
    """Run catalogue scenarios (all by default): name -> run document."""
    catalogue = [build(name, seed)
                 for name in sorted(set(SCENARIOS if names is None
                                        else names))]
    outcomes = run_specs([chaos_spec(chaos, warmup) for chaos in catalogue],
                         jobs=jobs)
    return {chaos.name: run_document(outcome, chaos.expected_violations)
            for chaos, outcome in zip(catalogue, outcomes)}
