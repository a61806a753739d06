"""Integration: miniature versions of the paper's headline result shapes.

Small, fast variants of the Figure 6-12 claims — the one place the
figures' shapes are asserted; the paper-size sweeps are entries of ``repro.experiments.catalogue`` whose
tables CI regenerates byte for byte.  Each test asserts a *direction* (who wins, which way a
knob pushes a metric), never an absolute number.
"""

import pytest

from repro.core.spec import SchedulingMode
from repro.experiments.harness import run_scenario
from repro.units import ms
from repro.workload.scenarios import Scenario

HORIZON = 8.0


def run(**kwargs):
    kwargs.setdefault("horizon", HORIZON)
    return run_scenario(Scenario(**kwargs))


# ---------------------------------------------------------------------------
# Figures 6-7: admission control protects response time
# ---------------------------------------------------------------------------


def test_fig6_response_flat_with_admission_control():
    # Past the admission knee the controller pins the population, so offered
    # load stops mattering: 48 and 64 offered admit the same set and respond
    # identically (the paper's "little impact" claim).
    at_knee = run(n_objects=48, window=ms(100))
    beyond = run(n_objects=64, window=ms(100))
    assert beyond.admitted < 64
    assert beyond.admitted == at_knee.admitted
    assert beyond.response.mean < 1.5 * at_knee.response.mean
    # And the controller keeps responses orders of magnitude below the
    # uncontrolled overload (see fig7 test).
    assert beyond.response.mean < ms(25)


def test_fig7_response_explodes_without_admission_control():
    light = run(n_objects=16, window=ms(100), admission_enabled=False)
    overloaded = run(n_objects=64, window=ms(100), admission_enabled=False)
    assert overloaded.admitted == 64
    assert overloaded.response.mean > 10 * light.response.mean


def test_fig7_larger_window_pushes_knee_right():
    # 64 objects overload a 100 ms window but fit under a 400 ms one.
    tight = run(n_objects=64, window=ms(100), admission_enabled=False)
    loose = run(n_objects=64, window=ms(400), admission_enabled=False)
    assert loose.response.mean < tight.response.mean / 3


# ---------------------------------------------------------------------------
# Figure 8: distance vs loss and write rate
# ---------------------------------------------------------------------------


def test_fig8_distance_grows_with_loss():
    clean = run(n_objects=6, loss_probability=0.0, horizon=12.0)
    lossy = run(n_objects=6, loss_probability=0.10, horizon=12.0)
    assert lossy.avg_max_distance > clean.avg_max_distance * 1.3


def test_fig8_distance_grows_with_write_rate():
    slow = run(n_objects=6, client_period=ms(400), loss_probability=0.05,
               horizon=12.0)
    fast = run(n_objects=6, client_period=ms(50), loss_probability=0.05,
               horizon=12.0)
    assert fast.avg_max_distance > slow.avg_max_distance


# ---------------------------------------------------------------------------
# Figures 9-10: distance vs object count
# ---------------------------------------------------------------------------


def test_fig9_distance_flat_with_admission_control():
    small = run(n_objects=8, window=ms(100), loss_probability=0.02)
    large = run(n_objects=64, window=ms(100), loss_probability=0.02)
    assert large.avg_max_distance < 2 * small.avg_max_distance


def test_fig10_distance_grows_past_capacity_without_admission():
    light = run(n_objects=16, window=ms(100), loss_probability=0.02,
                admission_enabled=False)
    overloaded = run(n_objects=64, window=ms(100), loss_probability=0.02,
                     admission_enabled=False)
    assert overloaded.avg_max_distance > 1.5 * light.avg_max_distance


# ---------------------------------------------------------------------------
# Figures 11-12: the window-size direction flip
# ---------------------------------------------------------------------------


def test_fig11_normal_scheduling_larger_window_longer_inconsistency():
    tight = run(n_objects=24, window=ms(50), client_period=ms(25),
                loss_probability=0.10, horizon=15.0)
    loose = run(n_objects=24, window=ms(200), client_period=ms(25),
                loss_probability=0.10, horizon=15.0)
    # Larger window -> longer update period -> longer recovery after loss.
    assert loose.avg_inconsistency > tight.avg_inconsistency


def test_fig12_compressed_scheduling_flips_window_direction():
    tight = run(n_objects=24, window=ms(50), client_period=ms(25),
                loss_probability=0.10, horizon=15.0,
                scheduling_mode=SchedulingMode.COMPRESSED)
    loose = run(n_objects=24, window=ms(200), client_period=ms(25),
                loss_probability=0.10, horizon=15.0,
                scheduling_mode=SchedulingMode.COMPRESSED)
    # Updates flow at CPU capacity regardless of window: the larger window
    # is harder to fall out of and no slower to re-enter.
    assert loose.avg_inconsistency <= tight.avg_inconsistency
    assert tight.avg_inconsistency > 0  # episodes do occur at 10% loss


def test_compressed_sends_far_more_updates_than_normal():
    normal = run(n_objects=4, horizon=6.0)
    compressed = run(n_objects=4, horizon=6.0,
                     scheduling_mode=SchedulingMode.COMPRESSED)
    normal_sends = len(normal.service.trace.select("update_sent"))
    compressed_sends = len(compressed.service.trace.select("update_sent"))
    assert compressed_sends > 10 * normal_sends
