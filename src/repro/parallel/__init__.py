"""Deterministic parallel execution of independent simulation runs.

The evaluation stack's top-level workloads — figure sweeps, the bench
suite, the chaos matrix — are embarrassingly parallel: every run is a pure
function of its :class:`~repro.parallel.spec.RunSpec` (scenario, faults,
flags), already deterministic per ``(scenario, seed)``.  This package
exploits exactly that property to fan runs out across worker processes
while keeping output **byte-identical to serial**:

- :func:`derive_seed` addresses each sweep point's randomness by its
  coordinates, never by enumeration order or worker assignment;
- :class:`~repro.parallel.spec.RunSpec` / ``RunOutcome`` make the request
  and the result plain picklable values; ``measure`` returns a run's
  metrics alone, for sweeps that print no run document;
- :class:`~repro.parallel.pool.SweepPool` reassembles results in
  submission order regardless of completion order, falling back to inline
  execution when ``jobs=1`` or the platform cannot start processes.

Worker count is a wall-time knob only.  Model code (``repro.sim``,
``repro.core``, ``repro.sched``) must never observe it; CI compares
serial and two-worker sweeps byte for byte.
"""

from repro.parallel.pool import (
    JOBS_ENV_VAR,
    SweepPool,
    SweepSubmissionError,
    measure_specs,
    process_support,
    resolve_jobs,
    run_specs,
)
from repro.parallel.seeds import derive_seed
from repro.parallel.spec import (
    RunOutcome,
    RunSpec,
    execute,
    measure,
    outcome_from_result,
    run_document,
)

__all__ = [
    "JOBS_ENV_VAR",
    "RunOutcome",
    "RunSpec",
    "SweepPool",
    "SweepSubmissionError",
    "derive_seed",
    "execute",
    "measure",
    "measure_specs",
    "outcome_from_result",
    "process_support",
    "resolve_jobs",
    "run_document",
    "run_specs",
]
