"""Hysteresis unit tests for the metrics-driven autoscaler."""

from types import SimpleNamespace

from repro.elastic.autoscaler import Autoscaler, peak_utilization
from repro.metrics.collectors import summarize
from repro.sim.engine import Simulator
from repro.units import ms
from repro.workload.elastic import ElasticScenario


def make_autoscaler(**knobs):
    """An autoscaler over a one-host fake cluster with a dialable load."""
    sim = Simulator()
    level = {"utilization": 0.0}
    slot = SimpleNamespace(
        alive=True, draining=False,
        admission=SimpleNamespace(
            planned_utilization=lambda: level["utilization"]))
    cluster = SimpleNamespace(sim=sim, slots={0: slot})
    actions = []
    scenario = ElasticScenario(**{"autoscale_period": 0.1,
                                  "autoscale_cooldown": 100.0, **knobs})
    scaler = Autoscaler(
        cluster, scenario,
        scale_out=lambda reason: actions.append(("out", reason)),
        scale_in=lambda reason: actions.append(("in", reason)))
    return sim, scaler, level, actions


def test_pressure_needs_a_full_streak():
    sim, scaler, level, actions = make_autoscaler(
        high_watermark=0.5, high_samples=3)
    level["utilization"] = 0.9
    scaler.start()
    sim.run(until=0.25)  # two ticks: streak not complete
    assert actions == []
    sim.run(until=0.35)  # third consecutive pressure tick
    assert actions == [("out", "utilization")]
    records = sim.trace.select("autoscale")
    assert len(records) == 1
    assert records[0]["action"] == "scale_out"
    assert records[0]["reason"] == "utilization"


def test_cooldown_suppresses_back_to_back_actions():
    sim, scaler, level, actions = make_autoscaler(
        high_watermark=0.5, high_samples=2, autoscale_cooldown=1.0)
    level["utilization"] = 0.9
    scaler.start()
    sim.run(until=2.5)
    # Pressure is constant; actions land one per (cooldown + streak).
    assert 1 <= len(actions) <= 3
    times = [record.time for record in sim.trace.select("autoscale")]
    assert all(later - earlier >= 1.0 - 1e-9
               for earlier, later in zip(times, times[1:]))


def test_borderline_samples_reset_both_streaks():
    sim, scaler, level, actions = make_autoscaler(
        high_watermark=0.5, low_watermark=0.2, high_samples=3,
        low_samples=3)
    level["utilization"] = 0.9
    # Interrupt every would-be streak with a borderline sample (between
    # the watermarks): neither scale-out nor scale-in may ever fire.
    def interrupt():
        level["utilization"] = 0.3 if level["utilization"] == 0.9 else 0.9
    for when in (0.25, 0.45, 0.65, 0.85):
        sim.schedule(when, interrupt)
    scaler.start()
    sim.run(until=1.0)
    assert actions == []


def test_idle_streak_scales_in():
    sim, scaler, level, actions = make_autoscaler(
        low_watermark=0.2, low_samples=4)
    level["utilization"] = 0.05
    scaler.start()
    sim.run(until=0.35)
    assert actions == []
    sim.run(until=0.45)
    assert actions == [("in", "idle")]


def test_latency_red_line_is_pressure_utilization_cannot_see():
    sim, scaler, level, actions = make_autoscaler(
        high_watermark=0.5, high_samples=3, latency_red=0.001)
    # Planned utilization stays calm — only the response stream screams.
    level["utilization"] = 0.1

    def slow_response():
        sim.trace.record("client_response", response=0.02)
        sim.schedule(0.05, slow_response)

    sim.schedule(0.01, slow_response)
    scaler.start()
    sim.run(until=0.35)
    assert actions == [("out", "latency")]


def test_violations_are_unconditional_pressure():
    sim, scaler, level, actions = make_autoscaler(high_samples=2)
    level["utilization"] = 0.0

    def violate():
        sim.trace.record("invariant_violation", kind="temporal_window")
        sim.schedule(0.1, violate)

    sim.schedule(0.05, violate)
    scaler.start()
    sim.run(until=0.25)
    assert actions == [("out", "violations")]


def test_draining_and_dead_hosts_are_ignored():
    sim, scaler, level, actions = make_autoscaler(high_watermark=0.5,
                                                  high_samples=1)
    level["utilization"] = 0.9
    scaler.cluster.slots[0].draining = True
    scaler.start()
    sim.run(until=0.35)
    # The only loaded host is draining: no pressure is visible.
    assert actions == []
    assert peak_utilization(scaler.cluster) == 0.0


def test_latency_pressure_reads_the_nearest_rank_p99():
    # A tick of 100 responses: the p99 is the 99th value, as in every
    # SummaryStats, not the maximum — so a red line between the two holds.
    responses = [ms(value) for value in range(1, 101)]
    assert summarize(list(responses)).p99 == ms(99)
    for red_line, expected in ((ms(99.5), []), (ms(98.5), ["latency"])):
        sim, scaler, level, actions = make_autoscaler(
            high_samples=1, latency_red=red_line)
        level["utilization"] = 0.3  # between the watermarks: no other reason
        scaler.start()
        for response in responses:
            sim.trace.record("client_response", response=response)
        sim.run(until=0.15)
        assert [reason for _, reason in actions] == expected
        if expected:
            assert sim.trace.select("autoscale")[0]["p99_response"] == ms(99)
