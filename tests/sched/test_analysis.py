"""Unit tests for schedulability analysis."""

import math

import pytest

from repro.errors import InvalidTaskError
from repro.sched.analysis import (
    dcs_feasible_sr,
    edf_schedulable,
    hyperperiod,
    rm_response_time,
    rm_schedulable_exact,
    rm_utilization_test,
    utilization,
)
from repro.sched.task import Task
from repro.units import utilization_bound_rm


def make_tasks(*pairs):
    return [Task(f"t{i}", period=p, wcet=e) for i, (p, e) in enumerate(pairs)]


def test_utilization_sum():
    tasks = make_tasks((0.1, 0.02), (0.2, 0.05))
    assert utilization(tasks) == pytest.approx(0.45)


def test_edf_feasible_at_full_utilization():
    tasks = make_tasks((0.1, 0.05), (0.2, 0.1))  # U = 1.0
    assert edf_schedulable(tasks)


def test_edf_infeasible_above_one():
    tasks = make_tasks((0.1, 0.06), (0.2, 0.1))  # U = 1.1
    assert not edf_schedulable(tasks)


def test_rm_bound_matches_liu_layland():
    assert utilization_bound_rm(1) == pytest.approx(1.0)
    assert utilization_bound_rm(2) == pytest.approx(2 * (2 ** 0.5 - 1))
    assert utilization_bound_rm(1000) == pytest.approx(math.log(2), abs=1e-3)


def test_rm_utilization_test_accepts_below_bound():
    tasks = make_tasks((0.1, 0.03), (0.2, 0.06))  # U = 0.6 < 0.828
    assert rm_utilization_test(tasks)


def test_rm_utilization_test_rejects_above_bound():
    tasks = make_tasks((0.1, 0.05), (0.2, 0.08))  # U = 0.9 > 0.828
    assert not rm_utilization_test(tasks)


def test_rm_utilization_test_empty_set():
    assert rm_utilization_test([])


def test_rm_exact_accepts_harmonic_full_utilization():
    # Harmonic sets are RM-schedulable up to U = 1 even past the LL bound.
    tasks = make_tasks((0.1, 0.05), (0.2, 0.1))  # U = 1.0, harmonic
    assert not rm_utilization_test(tasks)
    assert rm_schedulable_exact(tasks)


def test_rm_exact_rejects_overload():
    tasks = make_tasks((0.1, 0.08), (0.2, 0.08))  # U = 1.2
    assert not rm_schedulable_exact(tasks)


def test_rm_response_time_with_interference():
    high = Task("high", period=0.1, wcet=0.02)
    low = Task("low", period=0.5, wcet=0.1)
    response = rm_response_time(low, [high])
    # Within response R: ceil(R/0.1) releases of high interfere.
    # R = 0.1 + 2*0.02 = 0.14 -> ceil(0.14/0.1)=2 -> converged.
    assert response == pytest.approx(0.14)


def test_rm_response_time_unschedulable_returns_none():
    high = Task("high", period=0.1, wcet=0.09)
    low = Task("low", period=0.2, wcet=0.05)
    assert rm_response_time(low, [high]) is None


def test_dcs_condition():
    assert dcs_feasible_sr([0.01, 0.02], [0.1, 0.2])       # density 0.2
    assert not dcs_feasible_sr([0.09, 0.09], [0.1, 0.1])   # density 1.8


def test_dcs_condition_empty():
    assert dcs_feasible_sr([], [])


def test_dcs_condition_length_mismatch():
    with pytest.raises(InvalidTaskError):
        dcs_feasible_sr([0.01], [0.1, 0.2])


def test_hyperperiod_exact_for_simple_ratios():
    assert hyperperiod([0.1, 0.2, 0.4]) == pytest.approx(0.4)
    assert hyperperiod([0.05, 0.075]) == pytest.approx(0.15)


def test_hyperperiod_single():
    assert hyperperiod([0.3]) == pytest.approx(0.3)


def test_hyperperiod_empty_rejected():
    with pytest.raises(InvalidTaskError):
        hyperperiod([])

