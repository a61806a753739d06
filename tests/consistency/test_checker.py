"""Unit tests for the trace-based consistency checkers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.checker import (
    ExternalConsistencyChecker,
    InterObjectConsistencyChecker,
)
from repro.consistency.timestamps import VersionHistory
from repro.errors import InvalidTaskError


def make_history(object_id, times):
    history = VersionHistory(object_id)
    for seq, time in enumerate(times, start=1):
        history.record(time, seq, source_time=time)
    return history


# ---------------------------------------------------------------------------
# External checker
# ---------------------------------------------------------------------------


def test_external_clean_history_has_no_violations():
    history = make_history(0, [0.1 * k for k in range(1, 50)])
    checker = ExternalConsistencyChecker(delta=0.15)
    assert checker.holds(history, 0.0, 4.9)


def test_external_detects_gap_violation():
    history = make_history(0, [1.0, 1.5, 4.0])
    checker = ExternalConsistencyChecker(delta=1.0)
    violations = checker.check(history, 0.0, 5.0)
    assert len(violations) == 1
    violation = violations[0]
    assert violation.start == pytest.approx(2.5)
    assert violation.end == pytest.approx(4.0)
    assert violation.object_ids == (0,)
    assert violation.duration == pytest.approx(1.5)


def test_external_violation_open_at_window_start_reports_its_worst():
    # The update at 1.0 is δ-stale from 1.5; the window opens at 2.0.
    history = make_history(0, [1.0, 3.0])
    violation = ExternalConsistencyChecker(delta=0.5).check(
        history, 2.0, 2.9)[0]
    assert (violation.start, violation.end) == (2.0, 2.9)
    assert violation.worst == pytest.approx(1.4)


def test_external_negative_delta_rejected():
    with pytest.raises(InvalidTaskError):
        ExternalConsistencyChecker(-0.1)


# ---------------------------------------------------------------------------
# Inter-object checker
# ---------------------------------------------------------------------------


def test_interobject_aligned_updates_are_consistent():
    history_i = make_history(0, [0.1 * k for k in range(1, 40)])
    history_j = make_history(1, [0.1 * k + 0.02 for k in range(1, 40)])
    # Just after i's update at t=0.1k, T_i = 0.1k while T_j is still
    # 0.1(k-1) + 0.02: divergence peaks at 0.08.
    checker = InterObjectConsistencyChecker(delta_ij=0.1)
    assert checker.holds(history_i, history_j, 0.2, 3.8)
    assert checker.max_divergence(history_i, history_j, 0.2, 3.8) == \
        pytest.approx(0.08, abs=1e-9)
    assert not InterObjectConsistencyChecker(0.05).holds(
        history_i, history_j, 0.2, 3.8)


def test_interobject_detects_divergence():
    # Object i updates regularly, object j stalls between 1.0 and 3.0.
    history_i = make_history(0, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    history_j = make_history(1, [0.5, 1.0, 3.0])
    checker = InterObjectConsistencyChecker(delta_ij=0.8)
    violations = checker.check(history_i, history_j, 0.0, 3.5)
    assert len(violations) == 1
    violation = violations[0]
    # Divergence first exceeds 0.8 at i's update at t=2.0 (|2.0-1.0|=1.0)
    # and ends when j catches up at t=3.0.
    assert violation.start == pytest.approx(2.0)
    assert violation.end == pytest.approx(3.0)
    # Worst excess inside the episode: at t=2.5, |2.5 - 1.0| - 0.8 = 0.7
    # (at t=3.0 both histories jump to 3.0 and the divergence collapses).
    assert violation.worst == pytest.approx(0.7)


def test_interobject_violation_open_at_horizon():
    history_i = make_history(0, [1.0, 2.0, 3.0])
    history_j = make_history(1, [1.0])
    checker = InterObjectConsistencyChecker(delta_ij=0.5)
    violations = checker.check(history_i, history_j, 0.0, 4.0)
    assert violations
    assert violations[-1].end == pytest.approx(4.0)


def test_interobject_skips_until_both_exist():
    history_i = make_history(0, [0.1])
    history_j = make_history(1, [3.0])
    checker = InterObjectConsistencyChecker(delta_ij=0.5)
    # Before t=3.0 the pair is unconstrained; at t=3.0 divergence is 2.9.
    violations = checker.check(history_i, history_j, 0.0, 4.0)
    assert violations
    assert violations[0].start == pytest.approx(3.0)


def test_appendix_f_necessity_construction():
    """Theorem 6 necessity: the adversarial phasing from Appendix F violates
    delta_ij when p_i > delta_ij (zero variance)."""
    e_i = e_j = 0.01
    p_j = 0.3
    delta_ij = 0.25
    p_i = 0.29  # > delta_ij, <= p_j (Appendix F case 1)
    delta = 0.02
    # Task j: first invocation finishes at e_j, then periodically.
    times_j = [e_j + k * p_j for k in range(5)]
    # Task i: an invocation finishes exactly at p_j + e_j - delta.
    anchor = p_j + e_j - delta
    times_i = sorted({anchor - p_i, anchor, anchor + p_i})
    history_i = make_history(0, [t for t in times_i if t >= 0])
    history_j = make_history(1, times_j)
    checker = InterObjectConsistencyChecker(delta_ij)
    worst = checker.max_divergence(history_i, history_j, 0.0, p_j + e_j)
    assert worst > delta_ij  # the bound is indeed broken


def test_interobject_negative_delta_rejected():
    with pytest.raises(InvalidTaskError):
        InterObjectConsistencyChecker(-1.0)


_instants = st.lists(st.floats(min_value=0.0, max_value=10.0).map(
    lambda value: round(value, 2)), max_size=20).map(sorted)


@given(_instants, _instants, st.sampled_from([0.0, 2.5, 5.0]),
       st.sampled_from([5.0, 7.5, 10.0]))
@settings(max_examples=200, deadline=None)
def test_interobject_sweep_visits_every_step_of_the_window(
        times_i, times_j, start, end):
    """The bisected sweep equals a scan of every update of the run."""
    history_i = make_history(0, times_i)
    history_j = make_history(1, times_j)
    instants = sorted({start, end}
                      | {t for t in times_i + times_j if start <= t <= end})
    expected = [(t, history_i.timestamp_at(t), history_j.timestamp_at(t))
                for t in instants]
    assert list(InterObjectConsistencyChecker._sweep(
        history_i, history_j, start, end)) == [
            point for point in expected if None not in point]
