"""Unit tests for the order-preserving process pool.

Worker callables live at module level so they pickle by reference; the
pool tests run real subprocesses (small inputs, so they stay fast).
"""

import gc
import os
import subprocess
import sys
import threading
import tracemalloc

import pytest

import repro
from repro.parallel import (
    JOBS_ENV_VAR,
    RunSpec,
    SweepPool,
    SweepSubmissionError,
    measure_specs,
    process_support,
    resolve_jobs,
    run_specs,
)
from repro.units import ms
from repro.workload.scenarios import Scenario


def square(value):
    return value * value


def explode_on_three(value):
    if value == 3:
        raise ValueError(f"scripted failure at {value}")
    return value


# ---------------------------------------------------------------------------
# resolve_jobs
# ---------------------------------------------------------------------------


def test_resolve_jobs_defaults_to_serial(monkeypatch):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_reads_environment(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "3")
    assert resolve_jobs(None) == 3
    # An explicit argument wins over the environment.
    assert resolve_jobs(2) == 2


def test_resolve_jobs_rejects_bad_environment(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "many")
    with pytest.raises(ValueError):
        resolve_jobs(None)


def test_resolve_jobs_zero_means_per_cpu():
    assert resolve_jobs(0) >= 1


def test_resolve_jobs_rejects_negative():
    with pytest.raises(ValueError):
        resolve_jobs(-2)


# ---------------------------------------------------------------------------
# SweepPool
# ---------------------------------------------------------------------------


def test_serial_map_matches_list_comprehension():
    pool = SweepPool(jobs=1)
    items = [3, 1, 4, 1, 5]
    assert pool.map(square, items) == [square(item) for item in items]


def test_serial_map_accepts_unpicklable_callables():
    # jobs=1 never touches multiprocessing, so closures are fine.
    offset = 10
    assert SweepPool(jobs=1).map(lambda v: v + offset, [1, 2]) == [11, 12]


@pytest.mark.skipif(not process_support(), reason="no process support")
def test_parallel_map_preserves_submission_order():
    items = list(range(20))
    assert SweepPool(jobs=4).map(square, items) == [square(i) for i in items]


@pytest.mark.skipif(not process_support(), reason="no process support")
def test_parallel_matches_serial_exactly():
    items = [7, 0, 2, 9, 9, 1]
    assert SweepPool(jobs=3).map(square, items) == \
        SweepPool(jobs=1).map(square, items)


@pytest.mark.skipif(not process_support(), reason="no process support")
def test_worker_exception_propagates_without_hanging():
    with pytest.raises(ValueError, match="scripted failure at 3"):
        SweepPool(jobs=2).map(explode_on_three, [1, 2, 3, 4, 5, 6])


@pytest.mark.skipif(not process_support(), reason="no process support")
def test_unpicklable_item_fails_at_submission():
    items = [1, threading.Lock()]  # a lock can never cross processes
    with pytest.raises(SweepSubmissionError) as excinfo:
        SweepPool(jobs=2).map(square, items)
    assert "work item #1" in str(excinfo.value)


@pytest.mark.skipif(not process_support(), reason="no process support")
def test_unpicklable_callable_fails_at_submission():
    with pytest.raises(SweepSubmissionError, match="worker callable"):
        SweepPool(jobs=2).map(lambda v: v, [1, 2])


def test_single_item_work_runs_inline():
    # One item can never benefit from a pool; closures prove the bypass.
    assert SweepPool(jobs=8).map(lambda v: v - 1, [5]) == [4]


# ---------------------------------------------------------------------------
# run_specs: what a finished point leaves behind
# ---------------------------------------------------------------------------


def _point_specs(points):
    return [RunSpec(Scenario(n_objects=4, client_period=ms(20), horizon=6.0,
                             seed=seed))
            for seed in range(points)]


def _retained_after(sweep, points):
    """Bytes still allocated after ``sweep`` ran ``points`` specs under a
    paused collector, as a sweep runs them, and what the sweep returned."""
    specs = _point_specs(points)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = sweep(specs)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    return retained, results


def _retained_per_extra_point(sweep):
    _retained_after(sweep, 1)  # interns the record shapes a run makes
    one, _ = _retained_after(sweep, 1)
    four, results = _retained_after(sweep, 4)
    return (four - one) / 3, results


def test_finished_points_are_not_kept():
    """Regression: a deployment's object graph is cyclic, so a finished
    point — its trace included — was freed only by the cycle collector,
    which sweeps run with paused: a serial sweep held every point to its
    end."""
    per_point, outcomes = _retained_per_extra_point(run_specs)
    records = min(outcome.trace_records for outcome in outcomes)
    assert records > 1000
    # An extra point keeps its outcome: less than a pointer per record.
    assert per_point < 8 * records, per_point


def test_measured_points_are_not_kept():
    """The figures' worker frees its run as the documents' worker does."""
    per_point, metrics = _retained_per_extra_point(measure_specs)
    assert len(metrics) == 4
    records = min(outcome.trace_records
                  for outcome in run_specs(_point_specs(4)))
    assert records > 1000
    # An extra point keeps its metrics: less than a pointer per record.
    assert per_point < 8 * records, per_point


def test_a_serial_run_path_never_imports_the_process_pool():
    """Regression: importing the pool module loaded ``multiprocessing``
    (and with it ``socket`` and ``subprocess``) into every serial run."""
    probe = ("import sys\n"
             "import repro.experiments.figures, repro.cluster.harness, "
             "repro.elastic.harness\n"
             "print(sorted(name for name in ('multiprocessing', "
             "'concurrent.futures.process') if name in sys.modules))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=60)
    assert loaded.stdout.strip() == "[]", loaded.stdout
