"""Unit tests for scenario building."""

import dataclasses
import pickle

import pytest

from repro.core.spec import SchedulingMode
from repro.net.link import BernoulliLoss, NoLoss
from repro.units import ms
from repro.workload.scenarios import (
    Scenario,
    build_scenario,
    ping_misses_for_loss,
)


def test_default_scenario_builds_and_runs():
    service = build_scenario(Scenario(n_objects=2, horizon=2.0))
    service.run(2.0)
    assert len(service.registered_specs()) == 2
    assert service.trace.select("primary_write")


def test_loss_model_selection():
    assert isinstance(Scenario(loss_probability=0.0).loss_model(), NoLoss)
    model = Scenario(loss_probability=0.1).loss_model()
    assert isinstance(model, BernoulliLoss)
    assert model.probability == 0.1


def test_config_reflects_scenario_knobs():
    scenario = Scenario(scheduling_mode=SchedulingMode.COMPRESSED,
                        admission_enabled=False, slack_factor=3.0,
                        ell=ms(10))
    config = scenario.config()
    assert config.scheduling_mode is SchedulingMode.COMPRESSED
    assert not config.admission_enabled
    assert config.slack_factor == 3.0
    assert config.ell == ms(10)


def test_ping_misses_scale_with_loss():
    clean = ping_misses_for_loss(0.0)
    light = ping_misses_for_loss(0.02)
    heavy = ping_misses_for_loss(0.10)
    assert clean < light <= heavy
    # The promise behind the scaling: false-positive probability per round
    # stays below 1e-8.
    q = 1.0 - 0.9 ** 2
    assert q ** heavy <= 1e-8


def test_admission_disabled_accepts_oversubscription():
    scenario = Scenario(n_objects=80, window=ms(100),
                        admission_enabled=False, horizon=1.0)
    service = build_scenario(scenario)
    assert len(service.registered_specs()) == 80


def test_admission_enabled_caps_population():
    scenario = Scenario(n_objects=80, window=ms(100), horizon=1.0)
    service = build_scenario(scenario)
    assert len(service.registered_specs()) < 80


def test_scenario_pickle_round_trips_exactly():
    # Scenarios cross process boundaries in repro.parallel sweeps; the
    # worker must see *exactly* the value the driver built.
    scenario = Scenario(n_objects=5, window=ms(150), loss_probability=0.03,
                        scheduling_mode=SchedulingMode.COMPRESSED,
                        admission_enabled=False, seed=42)
    clone = pickle.loads(pickle.dumps(scenario,
                                      protocol=pickle.HIGHEST_PROTOCOL))
    assert clone == scenario
    assert dataclasses.asdict(clone) == dataclasses.asdict(scenario)
    assert clone.scheduling_mode is SchedulingMode.COMPRESSED


def test_scenario_is_frozen_and_slotted():
    scenario = Scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.n_objects = 99  # type: ignore[misc]
    # slots=True: no per-instance __dict__, so no sneaky attribute escape.
    # (TypeError: on some 3.10/3.11 builds the slotted-frozen __setattr__
    # trips over its stale class cell instead of raising AttributeError —
    # either way the write is refused, which is the property under test.)
    assert not hasattr(scenario, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        scenario.brand_new_knob = 1  # type: ignore[attr-defined]


def test_scenario_varies_by_replace():
    base = Scenario()
    varied = dataclasses.replace(base, window=ms(400), seed=7)
    assert varied.window == ms(400)
    assert varied.seed == 7
    assert base.window == ms(200)  # the original is untouched
