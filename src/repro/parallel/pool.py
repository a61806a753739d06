"""Deterministic process-pool fan-out for independent runs.

:class:`SweepPool` executes a list of independent work items — typically
:class:`~repro.parallel.spec.RunSpec` values — across worker processes and
returns results in **submission order**, so output is byte-identical to a
serial run regardless of worker count or completion order.  Determinism
never rests on scheduling: each item is a pure function of its own spec
(seeded randomness, virtual time), so parallelism only changes *when* a
result is computed, never *what* it is.

Failure semantics are strict and fast: every item (and the worker
callable) is pickled *before* submission, so an unpicklable scenario fails
in the caller with a clear :class:`SweepSubmissionError` instead of a
worker traceback; and when a worker raises, the original exception
propagates to the caller while pending work is cancelled — no hung pool.

``jobs=1`` (the default) bypasses multiprocessing entirely — not even
importing it — and runs inline, as does any platform without fork/spawn.
"""

from __future__ import annotations

import os
import pickle
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    TypeVar,
)

if TYPE_CHECKING:
    from repro.metrics.summary import RunMetrics
    from repro.parallel.spec import RunOutcome, RunSpec

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Environment variable consulted when a CLI ``--jobs`` flag is omitted.
JOBS_ENV_VAR = "REPRO_JOBS"


class SweepSubmissionError(ValueError):
    """A work item (or the worker callable) cannot cross to a worker."""


def process_support() -> bool:
    """Whether this platform can start worker processes at all."""
    try:
        import multiprocessing

        return bool(multiprocessing.get_all_start_methods())
    except (ImportError, NotImplementedError):  # pragma: no cover - exotic
        return False


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a worker-count request into a concrete count >= 1.

    ``None`` falls back to the ``REPRO_JOBS`` environment variable and then
    to 1 (serial); ``0`` means "one worker per CPU".  The resolved count
    only ever affects wall time — results are byte-identical at any value.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV_VAR} must be an integer, got {raw!r}") from None
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = one per CPU): {jobs}")
    return jobs


def _check_picklable(what: str, value: object) -> None:
    try:
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SweepSubmissionError(
            f"{what} is not picklable and cannot be shipped to a worker "
            f"process ({type(exc).__name__}: {exc}); run with jobs=1 or "
            f"make it a plain value") from exc


class SweepPool:
    """Order-preserving executor over independent work items."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = resolve_jobs(jobs)

    def map(self, func: Callable[[ItemT], ResultT],
            items: Iterable[ItemT]) -> List[ResultT]:
        """``[func(item) for item in items]``, possibly across processes.

        Results always come back in submission order.  With more than one
        job the callable and every item must pickle; violations raise
        :class:`SweepSubmissionError` before any worker starts.  A worker
        exception re-raises in the caller (the original exception, with
        the remote traceback attached) after pending items are cancelled.
        """
        work = list(items)
        if self.jobs <= 1 or len(work) <= 1 or not process_support():
            return [func(item) for item in work]
        _check_picklable(f"worker callable {func!r}", func)
        for index, item in enumerate(work):
            _check_picklable(f"work item #{index} ({type(item).__name__})",
                             item)
        from concurrent.futures import ProcessPoolExecutor
        try:
            executor = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(work)))
        except (OSError, NotImplementedError):  # pragma: no cover - platform
            return [func(item) for item in work]
        with executor:
            futures = [executor.submit(func, item) for item in work]
            try:
                return [future.result() for future in futures]
            except BaseException:
                for future in futures:
                    future.cancel()
                raise


def run_specs(specs: Sequence["RunSpec"], jobs: int = 1) -> List["RunOutcome"]:
    """Execute :class:`RunSpec` values through a pool, in submission order."""
    from repro.parallel.spec import execute

    return SweepPool(jobs).map(execute, list(specs))


def measure_specs(specs: Sequence["RunSpec"],
                  jobs: int = 1) -> List["RunMetrics"]:
    """Measure :class:`RunSpec` values through a pool, in submission order:
    each run's metrics alone, for sweeps that plot and print no digest."""
    from repro.parallel.spec import measure

    return SweepPool(jobs).map(measure, list(specs))
