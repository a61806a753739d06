"""Unit tests for the suite runner (injected scenarios and stopwatch)."""

import pytest

from repro.bench.registry import SCENARIOS, BenchStats
from repro.bench.runner import SCHEMA_VERSION, resolve_names, run_suite


class FakeStopwatch:
    """Advances half a second per reading: every bench 'takes' 0.5 s."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.5
        return self.t


@pytest.fixture
def fake_registry(monkeypatch):
    def counted(quick):
        return BenchStats(events_executed=1_000,
                          peak_live_events=7,
                          trace_records=3,
                          digest="abc123",
                          extra={"quick": quick})

    def timed_only(quick):
        return BenchStats(extra={})

    monkeypatch.setitem(SCENARIOS, "fake_counted", counted)
    monkeypatch.setitem(SCENARIOS, "fake_timed", timed_only)
    return ["fake_counted", "fake_timed"]


def test_run_suite_document_shape(fake_registry):
    document = run_suite(names=fake_registry, quick=True, rev="r1",
                         stopwatch=FakeStopwatch())
    assert document["schema"] == SCHEMA_VERSION
    assert document["meta"]["rev"] == "r1"
    assert document["meta"]["quick"] is True
    assert document["meta"]["scenarios"] == fake_registry
    counted = document["benches"]["fake_counted"]
    assert counted["wall_s"] == pytest.approx(0.5)
    assert counted["events_executed"] == 1_000
    assert counted["events_per_sec"] == pytest.approx(2_000.0)
    assert counted["digest"] == "abc123"
    assert counted["extra"] == {"quick": True}
    timed = document["benches"]["fake_timed"]
    assert timed["events_per_sec"] is None
    assert timed["wall_s"] == pytest.approx(0.5)


def test_run_suite_echoes_progress(fake_registry):
    lines = []
    run_suite(names=fake_registry, stopwatch=FakeStopwatch(),
              echo=lines.append)
    assert len(lines) == 2
    assert lines[0].startswith("fake_counted: 0.50s")


def test_resolve_names_rejects_unknown():
    with pytest.raises(KeyError, match="no_such_bench"):
        resolve_names(["no_such_bench"])


def test_resolve_names_defaults_to_whole_suite():
    assert resolve_names(None) == sorted(SCENARIOS)


class SlowingStopwatch:
    """Readings spread so each repeat's wall grows: 0.5, then 1.0, then 1.5."""

    def __init__(self):
        self.t = 0.0
        self.step = 0.0

    def __call__(self):
        self.step += 0.25
        self.t += self.step
        return self.t


def test_repeat_records_the_minimum_wall(fake_registry, monkeypatch):
    calls = {"n": 0}

    def counted(quick):
        calls["n"] += 1
        return BenchStats(events_executed=100, extra={})

    monkeypatch.setitem(SCENARIOS, "fake_counted", counted)
    document = run_suite(names=["fake_counted"], repeat=3,
                         stopwatch=SlowingStopwatch())
    assert calls["n"] == 3
    assert document["meta"]["repeat"] == 3
    # Walls were 0.75, 1.75, 2.75 under the slowing stopwatch: min wins.
    assert document["benches"]["fake_counted"]["wall_s"] == \
        pytest.approx(0.75)


def test_repeat_rejects_nondeterministic_scenarios(monkeypatch):
    ticker = {"n": 0}

    def flappy(quick):
        ticker["n"] += 1
        return BenchStats(events_executed=ticker["n"], extra={})

    monkeypatch.setitem(SCENARIOS, "fake_flappy", flappy)
    with pytest.raises(RuntimeError, match="not deterministic"):
        run_suite(names=["fake_flappy"], repeat=2,
                  stopwatch=FakeStopwatch())


def test_repeat_refuses_nonpositive_values(fake_registry):
    with pytest.raises(ValueError, match="repeat"):
        run_suite(names=fake_registry, repeat=0, stopwatch=FakeStopwatch())
