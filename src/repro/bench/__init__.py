"""Performance benchmark harness: ``python -m repro bench``.

The simulator core is only "fast" if a number says so.  This package runs a
registry of named benchmark scenarios (DES microbenchmarks, end-to-end
service runs, and one scenario per table of
:mod:`repro.experiments.catalogue`), records wall time plus the simulator's deterministic counters (events
executed, peak live events, trace sizes, trace digests) into a stable-JSON
``BENCH_<rev>.json`` document, and diffs two such documents to gate
throughput regressions in CI.  See ``docs/PERF.md``.
"""

from __future__ import annotations

from repro.bench.compare import CompareReport, Delta, compare_documents
from repro.bench.registry import SCENARIOS, BenchStats
from repro.bench.runner import SCHEMA_VERSION, run_suite

__all__ = [
    "BenchStats",
    "CompareReport",
    "Delta",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "compare_documents",
    "run_suite",
]
