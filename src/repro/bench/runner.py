"""Suite runner: execute scenarios, wall-time each, build the JSON document.

The document is serialised with :func:`repro.metrics.jsonio.stable_dumps`
(sorted keys, no NaN) so diffs between two ``BENCH_*.json`` files are
meaningful.  Wall times naturally vary between machines; everything else in
the document (event counts, peak live events, trace sizes, digests) is
deterministic for a fixed revision and seed set.

With ``jobs > 1`` the scenarios run concurrently across worker processes
(one scenario per worker via :class:`repro.parallel.SweepPool`); the
deterministic fields are byte-identical to a serial run.  Per-scenario wall
times stay honest because each worker times its own scenario with its own
stopwatch — queueing in the pool never inflates a scenario's number; only
``suite_wall_s`` (and the recorded ``jobs``) reflect the parallelism.

The stopwatch is injected (defaulting to a *reference* to
``time.perf_counter``) so the wall clock never leaks into model code and
tests can pin the timing fields.
"""

from __future__ import annotations

import cProfile
import gc
import math
import platform
import pstats
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.bench.registry import SCENARIOS, BenchStats
from repro.parallel import SweepPool

#: Bump when the document layout changes incompatibly.
SCHEMA_VERSION = 1

#: Worker-side stopwatch — a *reference* to ``time.perf_counter`` so the
#: wall clock never leaks into model code (DET001-clean).
_WORKER_STOPWATCH = time.perf_counter


def resolve_names(names: Optional[Iterable[str]] = None) -> List[str]:
    """Validate and order a scenario selection (default: the whole suite)."""
    if names is None:
        return sorted(SCENARIOS)
    selected = list(names)
    unknown = sorted(name for name in selected if name not in SCENARIOS)
    if unknown:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(
            f"unknown bench scenario(s) {', '.join(unknown)}; known: {known}")
    return selected


def _bench_entry(stats: BenchStats, wall: float) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "wall_s": round(wall, 6),
        "events_executed": stats.events_executed,
        "peak_live_events": stats.peak_live_events,
        "trace_records": stats.trace_records,
        "digest": stats.digest,
        "extra": dict(stats.extra),
    }
    if stats.events_executed is not None and wall > 0:
        entry["events_per_sec"] = round(stats.events_executed / wall, 1)
    else:
        entry["events_per_sec"] = None
    return entry


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic GC for a timed region (benchmark hygiene).

    Allocation-heavy scenarios otherwise measure collector pauses fired
    at arbitrary allocation counts instead of the code under test — the
    same reason pyperf disables the collector.  A
    full ``collect()`` runs before the clock starts so every scenario
    begins from the same heap state; the collector is restored (never
    force-enabled) afterwards.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _timed_run(name: str, quick: bool, repeat: int,
               stopwatch: Callable[[], float]) -> Tuple[BenchStats, float]:
    """Run one scenario ``repeat`` times: min wall, determinism-checked.

    Min-of-N is the standard defence against host noise (same rationale
    as ``timeit``): the minimum is the run least disturbed by scheduler
    interference or frequency scaling.  The deterministic fields double
    as a free determinism check — every repeat must reproduce them
    byte-for-byte, or the scenario is flagged on the spot.
    """
    scenario = SCENARIOS[name]
    stats: Optional[BenchStats] = None
    best = math.inf
    for _ in range(repeat):
        with _collector_paused():
            started = stopwatch()
            current = scenario(quick)
            wall = stopwatch() - started
        if wall < best:
            best = wall
        if stats is None:
            stats = current
        elif current != stats:
            raise RuntimeError(
                f"bench scenario {name!r} is not deterministic across "
                f"repeats: {current} != {stats}")
    assert stats is not None
    return stats, best


def _run_named(request: Tuple[str, bool, int]) -> Tuple[BenchStats, float]:
    """Worker entry point: run one registered scenario, self-timed."""
    name, quick, repeat = request
    return _timed_run(name, quick, repeat, _WORKER_STOPWATCH)


def top_hotspots(profiler: cProfile.Profile,
                 limit: int = 25) -> List[Dict[str, Any]]:
    """The ``limit`` most cumulative-expensive functions of one profile.

    Rows are plain dicts (stable-JSON friendly), ordered by cumulative
    time descending with the function label as a deterministic tiebreak.
    Absolute paths are trimmed at the package root so two machines'
    profiles of the same revision name the same functions.
    """
    stats = pstats.Stats(profiler)
    rows: List[Dict[str, Any]] = []
    for func, row in stats.stats.items():  # type: ignore[attr-defined]
        primitive_calls, total_calls, tottime, cumtime = row[:4]
        filename, lineno, name = func
        marker = filename.rfind("repro/")
        if marker != -1:
            filename = filename[marker:]
        rows.append({
            "function": f"{filename}:{lineno}({name})",
            "ncalls": total_calls,
            "primitive_calls": primitive_calls,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        })
    rows.sort(key=lambda entry: (-entry["cumtime_s"], entry["function"]))
    return rows[:limit]


def run_suite(names: Optional[Iterable[str]] = None, quick: bool = False,
              rev: str = "unversioned",
              stopwatch: Callable[[], float] = time.perf_counter,
              echo: Optional[Callable[[str], None]] = None,
              jobs: int = 1,
              profiles: Optional[Dict[str, Any]] = None,
              repeat: int = 1) -> Dict[str, Any]:
    """Run the selected scenarios and return the BENCH document (a dict).

    When ``profiles`` is a dict, each scenario additionally runs under
    :mod:`cProfile` and the dict is filled with scenario ->
    :func:`top_hotspots` rows.  Profiling is per-process, so it requires
    ``jobs == 1``; wall times in the document are then profiler-inflated
    and should not be compared against unprofiled baselines.

    ``repeat`` runs every scenario N times and records the *minimum*
    wall time (the run least disturbed by host noise — use it for
    committed baselines).  Deterministic fields must agree across
    repeats or the runner raises.  Profiling implies ``repeat == 1``.
    """
    selected = resolve_names(names)
    if profiles is not None and jobs > 1:
        raise ValueError("profiling is per-process; run with jobs=1")
    if profiles is not None and repeat > 1:
        raise ValueError("profiled wall times are inflated; min-of-N "
                         "would be meaningless — run with repeat=1")
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    benches: Dict[str, Any] = {}
    suite_started = stopwatch()
    timed: List[Tuple[BenchStats, float]]
    if jobs > 1:
        pool = SweepPool(jobs)
        timed = pool.map(_run_named,
                         [(name, quick, repeat) for name in selected])
    else:
        timed = []
        for name in selected:
            if profiles is not None:
                with _collector_paused():
                    started = stopwatch()
                    profiler = cProfile.Profile()
                    stats = profiler.runcall(SCENARIOS[name], quick)
                    wall = stopwatch() - started
                profiles[name] = top_hotspots(profiler)
                timed.append((stats, wall))
            else:
                timed.append(_timed_run(name, quick, repeat, stopwatch))
    for name, (stats, wall) in zip(selected, timed):
        benches[name] = _bench_entry(stats, wall)
        if echo is not None:
            rate = benches[name]["events_per_sec"]
            rate_text = f" ({rate:,.0f} ev/s)" if rate else ""
            echo(f"{name}: {wall:.2f}s{rate_text}")
    return {
        "schema": SCHEMA_VERSION,
        "meta": {
            "rev": rev,
            "quick": quick,
            "jobs": jobs,
            "repeat": repeat,
            "python": platform.python_version(),
            "scenarios": selected,
            "suite_wall_s": round(stopwatch() - suite_started, 6),
        },
        "benches": benches,
    }
