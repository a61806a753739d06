"""One function per evaluation figure (Figures 6-12).

Each returns a :class:`~repro.metrics.report.Series` whose curves match the
paper's: the same x-axis, the same per-curve parameter, the same metric on y
(reported in milliseconds).  Default sweep sizes are chosen so a full figure
regenerates in tens of seconds on a laptop; pass smaller tuples for quick
looks or larger ones for smoother curves.

Every sweep point is an independent run, so figures fan out through
:mod:`repro.parallel`: pass ``jobs=N`` to spread points over N worker
processes.  Results are reassembled in sweep order and each point's seed is
:func:`~repro.parallel.derive_seed` of its coordinates, so the rendered
table is byte-identical for any ``jobs`` value and adding a point never
reshuffles the randomness of the others.

Paper-shape expectations (what EXPERIMENTS.md checks):

- **Fig 6**: with admission control, response time is flat in the number of
  *offered* objects (the controller caps what enters), and larger windows
  admit more objects / respond no worse.
- **Fig 7**: without admission control, response time is flat until the
  window-dependent capacity knee, then grows dramatically; larger windows
  push the knee right.
- **Fig 8**: average maximum primary-backup distance grows with loss
  probability and with client write rate.
- **Fig 9/10**: distance flat in offered objects with admission control,
  growing past the knee without.
- **Fig 11**: (normal scheduling) inconsistency episodes last longer with
  more loss, and *longer* with larger windows (update period scales with
  the window).
- **Fig 12**: (compressed scheduling) still longer with more loss, but
  *shorter* with larger windows — the crossover the paper highlights.
- **Fig 13** (extension, :mod:`repro.replicas`): read throughput grows
  with replica count; the zero-replica baseline (every read a primary
  fallback) anchors the curve.
- **Fig 14** (extension): every read-staleness percentile grows with the
  window (update period scales with it), and the tail stays below δ^B.
- **Fig 15** (extension, :mod:`repro.elastic`): under a flash crowd the
  static cluster's p99 response grows with the burst factor while the
  elastic cluster's stays near-flat — the autoscaler recruits hosts and
  live-migrates shards into the new capacity mid-burst.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Sequence, Tuple

from repro.core.spec import SchedulingMode
from repro.metrics.report import Series
from repro.metrics.summary import RunMetrics
from repro.parallel import RunSpec, derive_seed, measure_specs
from repro.units import ms, to_ms
from repro.workload.scenarios import Scenario

DEFAULT_WINDOWS = (ms(100.0), ms(200.0), ms(400.0))
DEFAULT_OBJECT_COUNTS = (8, 16, 24, 32, 40, 48, 56)
DEFAULT_LOSS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10)
DEFAULT_WRITE_PERIODS = (ms(100.0), ms(200.0), ms(400.0))


def _window_label(window: float) -> str:
    return f"window={to_ms(window):.0f}ms"


def _rate_label(period: float) -> str:
    return f"write-period={to_ms(period):.0f}ms"


def _measured(specs: List[RunSpec],
              jobs: int) -> Iterator[Tuple[Any, Any, RunMetrics]]:
    """Measure ``specs`` through the pool: each point's ``(curve, x)`` key,
    taken from its spec, with its run's metrics, in spec order (the pool
    reassembles results in submission order whatever the completion
    order)."""
    for spec, metrics in zip(specs, measure_specs(specs, jobs=jobs)):
        assert spec.key is not None
        curve, x = spec.key
        yield curve, x, metrics


def _sweep(series: Series, specs: List[RunSpec], jobs: int,
           y_of: Callable[[RunMetrics], float]) -> Series:
    """Measure ``specs`` and plot ``y_of`` each point, in milliseconds."""
    for curve, x, metrics in _measured(specs, jobs):
        series.add_point(curve, x, to_ms(y_of(metrics)))
    return series


# ---------------------------------------------------------------------------
# Figures 6-7: client response time
# ---------------------------------------------------------------------------


def figure6_response_time_with_admission(
        object_counts: Sequence[int] = DEFAULT_OBJECT_COUNTS,
        windows: Sequence[float] = DEFAULT_WINDOWS,
        horizon: float = 10.0, seed: int = 0, jobs: int = 1) -> Series:
    """Figure 6: response time vs #objects offered, admission control ON."""
    return _response_series("Figure 6: client response time with admission "
                            "control", object_counts, windows, True,
                            horizon, seed, jobs)


def figure7_response_time_without_admission(
        object_counts: Sequence[int] = DEFAULT_OBJECT_COUNTS,
        windows: Sequence[float] = DEFAULT_WINDOWS,
        horizon: float = 10.0, seed: int = 0, jobs: int = 1) -> Series:
    """Figure 7: response time vs #objects accepted, admission control OFF."""
    return _response_series("Figure 7: client response time without "
                            "admission control", object_counts, windows,
                            False, horizon, seed, jobs)


def _response_series(name: str, object_counts: Sequence[int],
                     windows: Sequence[float], admission: bool,
                     horizon: float, seed: int, jobs: int = 1) -> Series:
    series = Series(name=name, x_label="objects",
                    y_label="mean response (ms)", curve_label="window size")
    specs = [
        RunSpec(
            scenario=Scenario(
                n_objects=count, window=window, client_period=ms(100.0),
                admission_enabled=admission, horizon=horizon,
                seed=derive_seed(seed, "response", window, count)),
            key=(_window_label(window), count))
        for window in windows for count in object_counts
    ]
    return _sweep(series, specs, jobs,
                  lambda metrics: metrics.response.mean)


def figure6_fastpath_overlay(
        object_counts: Sequence[int] = DEFAULT_OBJECT_COUNTS,
        window: float = ms(200.0), horizon: float = 10.0,
        seed: int = 0, jobs: int = 1) -> Series:
    """Figure 6 overlay: eager vs eager+fastpath response time, admission ON.

    The Fig 6 sweep re-run under the synchronous eager baseline and under
    eager with the commutative/timestamp-stable fast path
    (:mod:`repro.core.fastpath`), at one window size — mean and p99 per
    discipline, so the fast path's response-time reduction is read directly
    off the table.
    """
    return _fastpath_overlay_series(
        "Figure 6 overlay: eager vs fast-path response time with admission "
        "control", object_counts, window, True, horizon, seed, jobs)


def figure7_fastpath_overlay(
        object_counts: Sequence[int] = DEFAULT_OBJECT_COUNTS,
        window: float = ms(200.0), horizon: float = 10.0,
        seed: int = 0, jobs: int = 1) -> Series:
    """Figure 7 overlay: eager vs eager+fastpath response time, admission OFF.

    As :func:`figure6_fastpath_overlay` but without admission control, so
    the overlay also shows how each discipline degrades past the capacity
    knee (the fast path cannot rescue an overloaded primary — it removes
    the round trip, not the processing).
    """
    return _fastpath_overlay_series(
        "Figure 7 overlay: eager vs fast-path response time without "
        "admission control", object_counts, window, False, horizon, seed,
        jobs)


def _fastpath_overlay_series(name: str, object_counts: Sequence[int],
                             window: float, admission: bool, horizon: float,
                             seed: int, jobs: int = 1) -> Series:
    """Two runs per point (eager / eager+fastpath), two curves per run
    (mean / p99).  Seeds derive from the replication label too, so the two
    disciplines see independent jitter — the comparison is across seeds,
    as in the paper's sweeps."""
    series = Series(name=name, x_label="objects",
                    y_label="response (ms)", curve_label="discipline")
    labels = {"eager": "eager", "eager_fastpath": "eager+fastpath"}
    specs = [
        RunSpec(
            scenario=Scenario(
                n_objects=count, window=window, client_period=ms(100.0),
                admission_enabled=admission, horizon=horizon,
                replication=replication,
                seed=derive_seed(seed, "response_fastpath", replication,
                                 count)),
            key=(labels[replication], count))
        for replication in ("eager", "eager_fastpath")
        for count in object_counts
    ]
    for label, count, metrics in _measured(specs, jobs):
        series.add_point(f"{label} mean", count,
                         to_ms(metrics.response.mean))
        series.add_point(f"{label} p99", count, to_ms(metrics.response.p99))
    return series


# ---------------------------------------------------------------------------
# Figure 8: distance vs loss probability, per client write rate
# ---------------------------------------------------------------------------


def figure8_distance_vs_loss(
        loss_probabilities: Sequence[float] = DEFAULT_LOSS,
        write_periods: Sequence[float] = DEFAULT_WRITE_PERIODS,
        n_objects: int = 8, window: float = ms(200.0),
        horizon: float = 15.0, seed: int = 0, jobs: int = 1) -> Series:
    """Figure 8: average maximum primary/backup distance vs message loss."""
    series = Series(name="Figure 8: average maximum primary/backup distance",
                    x_label="loss probability",
                    y_label="avg max distance (ms)",
                    curve_label="client write rate")
    specs = [
        RunSpec(
            scenario=Scenario(
                n_objects=n_objects, window=window, client_period=period,
                loss_probability=loss, horizon=horizon,
                seed=derive_seed(seed, "distance-loss", period, loss)),
            key=(_rate_label(period), loss))
        for period in write_periods for loss in loss_probabilities
    ]
    return _sweep(series, specs, jobs,
                  lambda metrics: metrics.avg_max_distance)


# ---------------------------------------------------------------------------
# Figures 9-10: distance vs #objects
# ---------------------------------------------------------------------------


def figure9_distance_with_admission(
        object_counts: Sequence[int] = DEFAULT_OBJECT_COUNTS,
        windows: Sequence[float] = DEFAULT_WINDOWS,
        loss_probability: float = 0.02,
        horizon: float = 10.0, seed: int = 0, jobs: int = 1) -> Series:
    """Figure 9: avg max distance vs #objects offered, admission ON."""
    return _distance_series("Figure 9: avg max primary/backup distance with "
                            "admission control", object_counts, windows,
                            True, loss_probability, horizon, seed, jobs)


def figure10_distance_without_admission(
        object_counts: Sequence[int] = DEFAULT_OBJECT_COUNTS,
        windows: Sequence[float] = DEFAULT_WINDOWS,
        loss_probability: float = 0.02,
        horizon: float = 10.0, seed: int = 0, jobs: int = 1) -> Series:
    """Figure 10: avg max distance vs #objects accepted, admission OFF."""
    return _distance_series("Figure 10: avg max primary/backup distance "
                            "without admission control", object_counts,
                            windows, False, loss_probability, horizon, seed,
                            jobs)


def _distance_series(name: str, object_counts: Sequence[int],
                     windows: Sequence[float], admission: bool,
                     loss: float, horizon: float, seed: int,
                     jobs: int = 1) -> Series:
    series = Series(name=name, x_label="objects",
                    y_label="avg max distance (ms)",
                    curve_label="window size")
    specs = [
        RunSpec(
            scenario=Scenario(
                n_objects=count, window=window, client_period=ms(100.0),
                loss_probability=loss, admission_enabled=admission,
                horizon=horizon,
                seed=derive_seed(seed, "distance", window, count)),
            key=(_window_label(window), count))
        for window in windows for count in object_counts
    ]
    return _sweep(series, specs, jobs,
                  lambda metrics: metrics.avg_max_distance)


# ---------------------------------------------------------------------------
# Figures 11-12: duration of backup inconsistency
# ---------------------------------------------------------------------------


def figure11_inconsistency_normal(
        loss_probabilities: Sequence[float] = DEFAULT_LOSS,
        windows: Sequence[float] = (ms(50.0), ms(100.0), ms(200.0)),
        n_objects: int = 24, horizon: float = 15.0, seed: int = 0,
        jobs: int = 1) -> Series:
    """Figure 11: duration of backup inconsistency, normal scheduling."""
    return _inconsistency_series(
        "Figure 11: duration of backup inconsistency (normal scheduling)",
        loss_probabilities, windows, SchedulingMode.NORMAL, n_objects,
        horizon, seed, jobs)


def figure12_inconsistency_compressed(
        loss_probabilities: Sequence[float] = DEFAULT_LOSS,
        windows: Sequence[float] = (ms(50.0), ms(100.0), ms(200.0)),
        n_objects: int = 24, horizon: float = 15.0, seed: int = 0,
        jobs: int = 1) -> Series:
    """Figure 12: duration of backup inconsistency, compressed scheduling."""
    return _inconsistency_series(
        "Figure 12: duration of backup inconsistency (compressed scheduling)",
        loss_probabilities, windows, SchedulingMode.COMPRESSED, n_objects,
        horizon, seed, jobs)


def _inconsistency_series(name: str, loss_probabilities: Sequence[float],
                          windows: Sequence[float], mode: SchedulingMode,
                          n_objects: int, horizon: float,
                          seed: int, jobs: int = 1) -> Series:
    series = Series(name=name, x_label="loss probability",
                    y_label="avg inconsistency duration (ms)",
                    curve_label="window size")
    specs = [
        RunSpec(
            scenario=Scenario(
                n_objects=n_objects, window=window, client_period=ms(25.0),
                loss_probability=loss, scheduling_mode=mode,
                horizon=horizon,
                seed=derive_seed(seed, "inconsistency", mode, window, loss),
                # A populous deployment with fast writers: the compressed
                # round-robin interval (n_objects x tx cost) is then large
                # enough that window violations are observable at all, and
                # the window-direction flip the paper highlights emerges.
            ),
            key=(_window_label(window), loss))
        for window in windows for loss in loss_probabilities
    ]
    return _sweep(series, specs, jobs,
                  lambda metrics: metrics.avg_inconsistency)


# ---------------------------------------------------------------------------
# Figures 13-14 (extension): the read-replica staleness-SLO story
# ---------------------------------------------------------------------------


def _read_period_label(period: float) -> str:
    return f"read-period={to_ms(period):.1f}ms"


def figure13_read_throughput_vs_replicas(
        replica_counts: Sequence[int] = (0, 1, 2, 3),
        read_periods: Sequence[float] = (ms(0.5), ms(1.0), ms(2.0)),
        n_objects: int = 8, window: float = ms(200.0),
        horizon: float = 10.0, seed: int = 0, jobs: int = 1) -> Series:
    """Figure 13 (extension): read throughput vs read-replica count.

    Not a figure of the paper: it evaluates :mod:`repro.replicas`.  Readers
    are closed-loop pollers, so at saturation the measured throughput *is*
    the serving tier's capacity; adding window-consistent replicas grows it
    roughly linearly (0 replicas = every read falls back to the primary,
    the baseline point).  The faster curves saturate earlier, so the
    replica-count slope is steeper there.
    """
    series = Series(name="Figure 13: read throughput vs replica count",
                    x_label="read replicas",
                    y_label="read throughput (reads/s)",
                    curve_label="per-object read period")
    specs = [
        RunSpec(
            scenario=Scenario(
                n_objects=n_objects, window=window, horizon=horizon,
                n_replicas=count, read_period=period,
                seed=derive_seed(seed, "read-throughput", period, count)),
            key=(_read_period_label(period), count))
        for period in read_periods for count in replica_counts
    ]
    for curve, x, metrics in _measured(specs, jobs):
        series.add_point(curve, x, round(metrics.read_throughput, 1))
    return series


def figure14_read_staleness_vs_window(
        windows: Sequence[float] = (ms(100.0), ms(200.0), ms(400.0),
                                    ms(800.0)),
        n_replicas: int = 2, read_period: float = ms(2.0),
        n_objects: int = 8, horizon: float = 10.0, seed: int = 0,
        jobs: int = 1) -> Series:
    """Figure 14 (extension): delivered read staleness vs window size.

    Not a figure of the paper: it evaluates :mod:`repro.replicas`.  The
    update period scales with the window ((window - ell) / slack), so
    larger windows mean replicas hear from the primary less often and every
    staleness percentile grows with the window — while the p999 tail must
    stay below delta^B (the replica refuses rather than serve past it; the
    SLO audit in the bench suite pins violations at zero).
    """
    series = Series(name="Figure 14: delivered read staleness vs window",
                    x_label="window (ms)",
                    y_label="read staleness (ms)",
                    curve_label="percentile")
    specs = [
        RunSpec(
            scenario=Scenario(
                n_objects=n_objects, window=window, horizon=horizon,
                n_replicas=n_replicas, read_period=read_period,
                seed=derive_seed(seed, "read-staleness", window)),
            key=("staleness", to_ms(window)))
        for window in windows
    ]
    for _, x, metrics in _measured(specs, jobs):
        stats = metrics.read_staleness
        series.add_point("p50", x, to_ms(stats.p50))
        series.add_point("p99", x, to_ms(stats.p99))
        series.add_point("p999", x, to_ms(stats.p999))
    return series


# ---------------------------------------------------------------------------
# Figure 15 (extension): the elastic scale-out story
# ---------------------------------------------------------------------------


def figure15_flash_crowd_scaleout(
        burst_factors: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
        n_shards: int = 2, n_hosts: int = 4, n_objects: int = 12,
        window: float = ms(200.0), burst_at: float = 3.0,
        burst_duration: float = 2.0, horizon: float = 12.0,
        seed: int = 0, jobs: int = 1) -> Series:
    """Figure 15 (extension): p99 response under a flash crowd, elastic vs static.

    Not a figure of the paper: it evaluates :mod:`repro.elastic`.  Both
    curves run the *same* sharded deployment through the same flash crowd
    (clients multiply their write rate by the burst factor for
    ``burst_duration`` seconds); the static curve pins the control plane
    off (``elastic_enabled=False``, byte-identical to a plain cluster run)
    while the elastic curve lets the autoscaler's latency red line recruit
    standby hosts, add groups, and live-migrate shards into them.  The
    red line is an operator SLO sitting *below* the deployment's
    steady-state p99, so even the no-burst point scales out once and
    claws back part of the gap; under a burst the static tail degrades
    while the elastic tail flattens, so the elastic-vs-static gap widens
    monotonically with the burst factor.  The online invariant monitors
    stay attached, so the scale-out is only credited if every
    temporal-consistency window holds through the migrations (the chaos
    suite asserts the action counts; this figure shows the latency
    payoff).
    """
    from repro.faults.schedule import FaultSchedule
    from repro.workload.elastic import ElasticScenario

    series = Series(name="Figure 15: p99 response under a flash crowd",
                    x_label="burst factor",
                    y_label="p99 response (ms)",
                    curve_label="control plane")
    specs = []
    for elastic, label in ((False, "static cluster"),
                           (True, "elastic (autoscaled)")):
        for factor in burst_factors:
            scenario = ElasticScenario(
                n_shards=n_shards, n_hosts=n_hosts, n_objects=n_objects,
                window=window, horizon=horizon,
                elastic_enabled=elastic,
                # The latency red line is the only trigger that can see a
                # flash crowd (planned utilization is load-independent);
                # scale-in stays off so the comparison is pure scale-out.
                latency_red=0.003, low_watermark=0.0,
                max_groups=3, max_hosts=n_hosts + 2,
                seed=derive_seed(seed, "flash-crowd", factor))
            schedule = (FaultSchedule().flash_crowd(
                burst_at, burst_duration, factor) if factor > 1.0 else None)
            specs.append(RunSpec(scenario=scenario, fault_schedule=schedule,
                                 monitor=True, key=(label, factor)))
    return _sweep(series, specs, jobs,
                  lambda metrics: metrics.response.p99)
