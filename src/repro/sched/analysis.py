"""Schedulability analysis.

Implements the feasibility tests the paper's admission controller relies on
(Section 4.2) and the classical results it cites:

- EDF: a set of implicit-deadline periodic tasks is schedulable iff the total
  utilisation is at most 1 [Liu & Layland 1973].
- Rate Monotonic: sufficient utilisation bound ``U ≤ n(2^{1/n} - 1)`` [20],
  plus the exact response-time analysis (Joseph & Pandya / Audsley) used when
  the sufficient bound is too conservative.
- Distance-Constrained Scheduling: Han & Lin's feasibility condition for the
  ``Sr`` scheduler, ``Σ e_i/c_i ≤ n(2^{1/n} - 1)`` (the paper's
  Inequality 2.2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from repro.errors import InvalidTaskError
from repro.sched.task import Task, TaskSet
from repro.units import utilization_bound_rm


def utilization(tasks: Iterable[Task]) -> float:
    """Total utilisation ``Σ e_i / p_i`` of ``tasks``."""
    return sum(task.utilization for task in tasks)


def edf_schedulable(tasks: Iterable[Task]) -> bool:
    """EDF feasibility for implicit-deadline periodic tasks: ``U ≤ 1``."""
    return utilization(tasks) <= 1.0 + 1e-12


def rm_utilization_test(tasks: Sequence[Task]) -> bool:
    """Liu-Layland sufficient test: ``U ≤ n(2^{1/n} - 1)``.

    Failing this test does **not** imply infeasibility; use
    :func:`rm_schedulable_exact` for a necessary-and-sufficient answer.
    This is the test the paper's admission controller runs ("the primary
    will perform a schedulability test based on the rate-monotonic
    scheduling algorithm").
    """
    n = len(tasks)
    if n == 0:
        return True
    return utilization(tasks) <= utilization_bound_rm(n) + 1e-12


def rm_response_time(task: Task, higher_priority: Sequence[Task],
                     max_iterations: int = 10_000) -> Optional[float]:
    """Worst-case response time of ``task`` under RM via fixed-point iteration.

    ``R = e_i + Σ_j ⌈R / p_j⌉ e_j`` over higher-priority tasks ``j``.
    Returns ``None`` when the iteration diverges past the deadline (the task
    is unschedulable at this priority level).
    """
    response = task.wcet
    for _ in range(max_iterations):
        interference = sum(
            math.ceil(response / other.period - 1e-12) * other.wcet
            for other in higher_priority)
        next_response = task.wcet + interference
        if next_response > task.deadline + 1e-12:
            return None
        if abs(next_response - response) <= 1e-12:
            return next_response
        response = next_response
    raise InvalidTaskError(
        f"response-time iteration for {task.name!r} did not converge")


def rm_schedulable_exact(tasks: Sequence[Task]) -> bool:
    """Exact RM schedulability: every task's response time meets its deadline.

    Assumes deadlines ≤ periods and rate-monotonic priority assignment
    (shorter period = higher priority), the setting used throughout the paper.
    """
    ordered = sorted(tasks, key=lambda task: (task.period, task.name))
    for index, task in enumerate(ordered):
        if rm_response_time(task, ordered[:index]) is None:
            return False
    return True


def dcs_feasible_sr(execution_times: Sequence[float],
                    distances: Sequence[float]) -> bool:
    """Han & Lin feasibility for scheduler ``Sr``: ``Σ e_i/c_i ≤ n(2^{1/n}-1)``.

    This is the paper's Inequality 2.2; with periods substituted for the
    distance constraints it is the precondition of Theorem 3 (zero phase
    variance).
    """
    if len(execution_times) != len(distances):
        raise InvalidTaskError("execution_times and distances differ in length")
    n = len(distances)
    if n == 0:
        return True
    density = sum(e / c for e, c in zip(execution_times, distances))
    return density <= utilization_bound_rm(n) + 1e-12


def hyperperiod(periods: Sequence[float], resolution: float = 1e-9) -> float:
    """Least common multiple of the task periods.

    Periods are floats; each is snapped to a rational with denominator
    ``1/resolution`` before taking the LCM, which is exact for the
    millisecond/microsecond-scale periods used in the experiments.
    """
    if not periods:
        raise InvalidTaskError("hyperperiod of an empty period list")
    fractions = [
        Fraction(period).limit_denominator(int(round(1.0 / resolution)))
        for period in periods
    ]
    numerator_lcm = 1
    denominator_gcd = 0
    for fraction in fractions:
        numerator_lcm = _lcm(numerator_lcm, fraction.numerator)
        denominator_gcd = math.gcd(denominator_gcd, fraction.denominator)
    return float(Fraction(numerator_lcm, denominator_gcd))


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b
