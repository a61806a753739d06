"""Unit tests for version histories (the T_i(t) timeline)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.timestamps import Version, VersionHistory


def make_history(times):
    history = VersionHistory(0)
    for seq, time in enumerate(times, start=1):
        history.record(time, seq, source_time=time)
    return history


def test_timestamp_at_is_last_update_before_t():
    history = make_history([1.0, 2.0, 5.0])
    assert history.timestamp_at(0.5) is None
    assert history.timestamp_at(1.0) == 1.0
    assert history.timestamp_at(1.7) == 1.0
    assert history.timestamp_at(2.0) == 2.0
    assert history.timestamp_at(10.0) == 5.0


def test_staleness_definition():
    history = make_history([1.0, 3.0])
    assert history.staleness_at(0.5) is None
    assert history.staleness_at(2.5) == pytest.approx(1.5)
    assert history.staleness_at(3.0) == pytest.approx(0.0)


def test_version_metadata_preserved():
    history = VersionHistory(7)
    history.record(1.0, seq=4, source_time=0.9)
    version = history.version_at(1.5)
    assert version.seq == 4
    assert version.source_time == 0.9
    assert history.latest == version
    assert history.seqs == (4,)


def test_a_history_keeps_no_payload():
    assert Version._fields == ("apply_time", "seq", "source_time")
    with pytest.raises(TypeError):
        VersionHistory(0).record(1.0, 1, 1.0, b"payload")


def test_out_of_order_record_rejected():
    history = make_history([2.0])
    with pytest.raises(ValueError):
        history.record(1.0, seq=2, source_time=1.0)


def test_max_staleness_between_updates():
    history = make_history([1.0, 2.0, 4.5])
    # Gaps from start=0: 1.0 (to first), 1.0, 2.5, then 0.5 to end=5.0.
    assert history.max_staleness(0.0, 5.0) == pytest.approx(2.5)


def test_max_staleness_tail_counts():
    history = make_history([1.0])
    assert history.max_staleness(0.0, 10.0) == pytest.approx(9.0)


def test_max_staleness_empty_history_measures_from_start():
    history = VersionHistory(0)
    assert history.max_staleness(2.0, 7.0) == pytest.approx(5.0)


def test_max_staleness_invalid_interval():
    with pytest.raises(ValueError):
        make_history([1.0]).max_staleness(5.0, 1.0)


def test_violation_intervals_are_gap_tails():
    history = make_history([1.0, 2.0, 5.0])
    intervals = history.violation_intervals(delta=1.5, start=0.0, end=6.0)
    # Gap 2.0->5.0 exceeds 1.5: violated on (3.5, 5.0).
    assert intervals == [(3.5, 5.0)]


def test_violation_intervals_include_tail_to_horizon():
    history = make_history([1.0])
    intervals = history.violation_intervals(delta=2.0, start=0.0, end=10.0)
    assert intervals == [(3.0, 10.0)]


def test_satisfies():
    history = make_history([1.0, 2.0, 3.0, 4.0])
    assert history.satisfies(delta=1.0, start=0.0, end=4.0)
    assert not history.satisfies(delta=0.5, start=0.0, end=4.0)


def test_an_update_before_the_window_anchors_it():
    """Regression: both deciders took the object to be fresh at ``start``
    although an update had finished before it, so ``T(start)`` was
    ignored and the staleness carried into the window went uncounted."""
    history = make_history([1.7, 2.1])
    assert history.staleness_at(2.05) == pytest.approx(0.35)
    assert history.violation_intervals(0.2, 2.0, 2.15) == [(2.0, 2.1)]
    assert not history.satisfies(0.2, 2.0, 2.15)

    history = make_history([1.0, 3.0])
    assert history.violation_intervals(0.5, 2.0, 4.0) == [(2.0, 3.0),
                                                          (3.5, 4.0)]
    assert history.max_staleness(2.0, 4.0) == pytest.approx(2.0)


def test_times_between_is_the_closed_window():
    history = make_history([1.0, 2.0, 2.0, 3.0, 5.0])
    assert list(history.times_between(2.0, 3.0)) == [2.0, 2.0, 3.0]
    assert list(history.times_between(3.5, 4.5)) == []
    assert history.seqs == (1, 2, 3, 4, 5)


def test_negative_delta_rejected():
    with pytest.raises(ValueError):
        make_history([1.0]).violation_intervals(-0.1, 0.0, 1.0)


@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1,
                max_size=30),
       st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_violation_measure_equals_excess_staleness(raw_times, delta):
    """Total violated time == integral of 1{staleness > delta}."""
    times = sorted(set(round(t, 6) for t in raw_times))
    history = make_history(times)
    start, end = 0.0, 1.0
    intervals = history.violation_intervals(delta, start, end)
    total = sum(b - a for a, b in intervals)
    # Independent computation from the gap structure.
    anchors = [start] + list(times) + [end]
    expected = sum(max(0.0, (b - a) - delta)
                   for a, b in zip(anchors[:-1], anchors[1:]))
    # The final anchor pair double-counts when the last update is at `end`;
    # both computations use the same anchor structure, so they must agree.
    assert total == pytest.approx(expected, abs=1e-9)


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2,
                max_size=50))
@settings(max_examples=100, deadline=None)
def test_satisfies_iff_max_staleness_within_delta(raw_times):
    times = sorted(set(raw_times))
    history = make_history(times)
    worst = history.max_staleness(0.0, 10.0)
    assert history.satisfies(worst, 0.0, 10.0)
    if worst > 0.01:
        assert not history.satisfies(worst - 0.01, 0.0, 10.0)


# ---------------------------------------------------------------------------
# Window queries against the paper's definition, evaluated slowly
# ---------------------------------------------------------------------------


def _reference_staleness(times, t, start, left=False):
    """``t - T(t)`` by a linear scan (``T(t⁻)`` when ``left``), measured
    from ``start`` while no update precedes ``t``."""
    before = [u for u in times if (u < t if left else u <= t)]
    return t - (before[-1] if before else start)


def _reference_instants(times, start, end):
    """Every instant where ``t - T(t)`` can peak or cross a bound."""
    return sorted({start, end, *(u for u in times if start <= u <= end)})


_instants = st.floats(min_value=0.0, max_value=10.0).map(
    lambda value: round(value, 3))


@st.composite
def _history_and_window(draw):
    times = sorted(draw(st.lists(_instants, max_size=25)))
    edges = st.one_of(_instants, st.sampled_from(times)) if times else _instants
    start, end = sorted((draw(edges), draw(edges)))
    return times, start, end


@given(_history_and_window())
@settings(max_examples=300, deadline=None)
def test_max_staleness_matches_the_definition(case):
    times, start, end = case
    history = make_history(times)
    instants = _reference_instants(times, start, end)
    # Staleness peaks at ``start``, at ``end`` or just before an update.
    expected = max([_reference_staleness(times, start, start),
                    *(_reference_staleness(times, t, start, left=True)
                      for t in instants[1:])])
    for t in instants:
        staleness = history.staleness_at(t)
        if staleness is not None:
            assert staleness == pytest.approx(
                _reference_staleness(times, t, start))
    assert history.max_staleness(start, end) == pytest.approx(expected)


@given(_history_and_window(), st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=300, deadline=None)
def test_violation_intervals_match_the_definition(case, delta):
    times, start, end = case
    history = make_history(times)
    delta = round(delta, 3) + 0.0005  # never on a gap's exact length
    intervals = history.violation_intervals(delta, start, end)
    instants = _reference_instants(times, start, end)
    # Between consecutive instants staleness rises with slope 1 from its
    # value at the left one: the violated part is that segment's tail.
    expected = []
    for left, right in zip(instants, instants[1:]):
        excess_at = left + delta - _reference_staleness(times, left, start)
        if right > excess_at:
            expected.append((max(left, excess_at), right))
    # A window of one instant can only yield an empty interval.
    assert [pair for pair in intervals if pair[1] > pair[0]] == [
        pytest.approx(pair) for pair in expected]
    for low, high in intervals:
        assert start <= low <= high <= end
