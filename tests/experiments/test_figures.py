"""Micro-size smoke tests for the figure generators.

Each figure function is exercised with a minimal sweep (the paper-size
sweeps are the experiment catalogue's, regenerated into
``benchmarks/results/`` by CI); these verify the series structure and the
cheap directional claims.
"""

import pytest

from repro.experiments.figures import (
    figure6_response_time_with_admission,
    figure7_response_time_without_admission,
    figure8_distance_vs_loss,
    figure9_distance_with_admission,
    figure10_distance_without_admission,
    figure11_inconsistency_normal,
    figure12_inconsistency_compressed,
)
from repro.units import ms


def test_figure6_structure():
    series = figure6_response_time_with_admission(
        object_counts=(4, 8), windows=(ms(200),), horizon=3.0)
    assert series.curves.keys() == {"window=200ms"}
    points = series.curve("window=200ms")
    assert [x for x, _y in points] == [4, 8]
    assert all(y > 0 for _x, y in points)


def test_figure7_structure():
    series = figure7_response_time_without_admission(
        object_counts=(4,), windows=(ms(200),), horizon=3.0)
    assert len(series.curve("window=200ms")) == 1


def test_figure8_no_loss_point_is_zero():
    series = figure8_distance_vs_loss(
        loss_probabilities=(0.0,), write_periods=(ms(100),),
        n_objects=3, horizon=4.0)
    (_x, y), = series.curve("write-period=100ms")
    assert y == pytest.approx(0.0)


def test_figure9_and_10_structures():
    for figure in (figure9_distance_with_admission,
                   figure10_distance_without_admission):
        series = figure(object_counts=(4,), windows=(ms(200),),
                        loss_probability=0.02, horizon=3.0)
        assert len(series.curve("window=200ms")) == 1


def test_figure11_and_12_structures():
    for figure in (figure11_inconsistency_normal,
                   figure12_inconsistency_compressed):
        series = figure(loss_probabilities=(0.0,), windows=(ms(100),),
                        n_objects=3, horizon=3.0)
        (_x, y), = series.curve("window=100ms")
        assert y == pytest.approx(0.0)  # no loss -> no inconsistency


def test_series_render_is_nonempty():
    series = figure6_response_time_with_admission(
        object_counts=(4,), windows=(ms(200),), horizon=2.0)
    rendered = series.render()
    assert "Figure 6" in rendered
    assert "window=200ms" in rendered
