"""The tables that are not paper figures: ablations, recovery, extensions, theory.

One function per table EXPERIMENTS.md argues from beside Figures 6-15.
Each returns a :class:`~repro.metrics.report.Table` and asserts nothing:
the shapes are checked by ``tests/experiments/test_studies.py``, the
committed numbers by regenerating ``benchmarks/results/`` in CI.

The sweep sizes are not here.  A study takes its swept axis and its
horizon as arguments, and :mod:`repro.experiments.catalogue` is the one
place that says which values make the committed table and which a quick
pass.  Seeds are arguments too, defaulting to the committed tables'.

Every row is an independent seeded run, so a study fans its rows out
through :class:`~repro.parallel.SweepPool` as the figure sweeps do:
``jobs`` changes the wall time and nothing else.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Sequence, Tuple, TypeVar

from repro.baselines import DISCIPLINES, MultiBackupServer
from repro.core.service import PRIMARY_ADDRESS, RTPBService
from repro.core.spec import ObjectSpec, SchedulingMode, ServiceConfig
from repro.experiments.harness import run_scenario
from repro.metrics.collectors import (backup_external_violations,
                                     failover_latency)
from repro.metrics.report import Table
from repro.metrics.summary import collect_metrics
from repro.net.link import BernoulliLoss, GilbertElliottLoss, LossModel
from repro.parallel import SweepPool
from repro.sched import (
    DistanceConstrainedScheduler,
    EDFScheduler,
    PhaseVarianceBounds,
    Processor,
    RateMonotonicScheduler,
    Task,
    phase_variance,
    rm_schedulable_exact,
)
from repro.sim.engine import Simulator
from repro.units import ms, to_ms
from repro.workload.generator import homogeneous_specs, mixed_specs
from repro.workload.scenarios import Scenario

#: Seconds excluded from every metric at the head of a run.
_WARMUP = 2.0

PointT = TypeVar("PointT")
Row = Tuple[object, ...]


def _table(title: str, columns: List[str], row_of: Callable[[PointT], Row],
           points: Sequence[PointT], jobs: int) -> Table:
    """One run per point, one row per run, in ``points`` order."""
    table = Table(title, columns)
    for cells in SweepPool(jobs).map(row_of, points):
        table.add_row(*cells)
    return table


def _drive(service: RTPBService, specs: Sequence[ObjectSpec], horizon: float,
           write_jitter: float = 0.0) -> RTPBService:
    """Offer ``specs``, attach a client to what was admitted, run."""
    service.register_all(specs)
    service.create_client(service.registered_specs(),
                          write_jitter=write_jitter)
    service.run(horizon)
    return service


# ---------------------------------------------------------------------------
# Ablations A-E: the paper's design choices, undone one at a time
# ---------------------------------------------------------------------------


def _ack_row(point: Tuple[float, bool, float, int]) -> Row:
    loss, ack_updates, horizon, seed = point
    service = _drive(
        RTPBService(seed=seed,
                    loss_model=BernoulliLoss(loss) if loss else None,
                    config=ServiceConfig(ack_updates=ack_updates,
                                         ping_max_misses=40)),
        homogeneous_specs(8, window=ms(200.0), client_period=ms(100.0)),
        horizon)
    return (loss, "yes" if ack_updates else "no",
            service.fabric.messages_sent,
            round(service.fabric.bytes_sent / 1024, 1),
            to_ms(collect_metrics(service, horizon,
                                  _WARMUP).avg_max_distance))


def ablation_ack_strategy(loss_points: Sequence[float], horizon: float,
                          seed: int = 3, jobs: int = 1) -> Table:
    """Ablation A: per-update acks vs no acks — fabric load and freshness.

    The paper chose not to acknowledge each update ("considerable
    communication overhead", Section 4.3); this measures that overhead.
    """
    return _table("Ablation: per-update acks vs no acks (Section 4.3)",
                  ["loss", "acks", "fabric msgs", "fabric kB",
                   "avg max distance (ms)"],
                  _ack_row,
                  [(loss, ack, horizon, seed)
                   for loss in loss_points for ack in (False, True)],
                  jobs)


def _slack_row(point: Tuple[float, float, int]) -> Row:
    slack, horizon, seed = point
    result = run_scenario(Scenario(
        n_objects=8, window=ms(200.0), client_period=ms(50.0),
        loss_probability=0.08, slack_factor=slack,
        retransmission_enabled=False, horizon=horizon, seed=seed))
    return (slack, len(result.service.trace.select("update_sent")),
            to_ms(result.avg_max_distance), to_ms(result.avg_inconsistency))


def ablation_update_slack(slacks: Sequence[float], horizon: float,
                          seed: int = 2, jobs: int = 1) -> Table:
    """Ablation B: update period (δ-ℓ)/slack at 8% loss, retransmission off.

    More slack costs transmissions and buys backup freshness; the paper's
    "twice as often" (2.0) sits at the knee.
    """
    return _table("Ablation: transmission slack factor at 8% loss "
                  "(paper default = 2.0)",
                  ["slack", "updates sent", "avg max distance (ms)",
                   "avg inconsistency (ms)"],
                  _slack_row, [(slack, horizon, seed) for slack in slacks],
                  jobs)


_SYSTEMS = ("rtpb", "window_consistent", "eager", "active", "semi_active")


def _baseline_row(point: Tuple[str, float, float, int]) -> Row:
    name, write_period, horizon, seed = point
    service = _drive(
        RTPBService(server_class=DISCIPLINES[name], seed=seed,
                    config=ServiceConfig()),
        homogeneous_specs(6, window=ms(200.0), client_period=write_period),
        horizon)
    return (name, to_ms(write_period),
            to_ms(collect_metrics(service, horizon, _WARMUP).mean_response),
            len(service.trace.select("update_sent")))


def ablation_baselines(write_periods: Sequence[float], horizon: float,
                       seed: int = 6, jobs: int = 1) -> Table:
    """Ablation C: RTPB vs window-consistent vs eager vs active vs semi-active.

    Active and eager pay a round trip per write; window-consistent answers
    fast but couples transmission load to the write rate; RTPB gets fast
    responses *and* transmission load capped by the window.
    """
    return _table("RTPB vs baselines (6 objects, 200 ms window)",
                  ["system", "write period (ms)", "mean response (ms)",
                   "updates sent"],
                  _baseline_row,
                  [(name, period, horizon, seed)
                   for period in write_periods for name in _SYSTEMS],
                  jobs)


def _burst_loss_row(point: Tuple[str, LossModel, float, int]) -> Row:
    label, loss_model, horizon, seed = point
    service = _drive(
        RTPBService(seed=seed, loss_model=loss_model,
                    config=ServiceConfig(ping_max_misses=60)),
        homogeneous_specs(8, window=ms(150.0), client_period=ms(50.0)),
        horizon)
    metrics = collect_metrics(service, horizon, _WARMUP)
    return (label, to_ms(metrics.avg_max_distance),
            to_ms(metrics.avg_inconsistency))


def ablation_burst_loss(horizon: float, seed: int = 5,
                        jobs: int = 1) -> Table:
    """Ablation D: the same ~10% average loss, i.i.d. vs clustered.

    Gilbert-Elliott spends p_gb/(p_gb+p_bg) = 1/6 of messages in the bad
    state at 60% loss, i.e. 10% on average; streaks defeat the slack-2
    schedule where isolated drops do not.
    """
    # Built per call: a Gilbert-Elliott model carries its channel state.
    models: List[Tuple[str, LossModel]] = [
        ("iid 10%", BernoulliLoss(0.10)),
        ("bursty 10% (GE)", GilbertElliottLoss(
            p_gb=0.04, p_bg=0.20, loss_good=0.0, loss_bad=0.60))]
    return _table("Ablation: i.i.d. vs bursty loss at ~10% average",
                  ["loss model", "avg max distance (ms)",
                   "avg inconsistency (ms)"],
                  _burst_loss_row,
                  [(label, model, horizon, seed) for label, model in models],
                  jobs)


def _cpu_row(point: Tuple[int, str, bool, float, int]) -> Row:
    n_objects, policy, admission, horizon, seed = point
    service = _drive(
        RTPBService(seed=seed, config=ServiceConfig(
            cpu_scheduler=policy, admission_enabled=admission)),
        homogeneous_specs(n_objects, window=ms(100.0),
                          client_period=ms(100.0)),
        horizon, write_jitter=ms(2.0) if admission else 0.0)
    metrics = collect_metrics(service, horizon, _WARMUP)
    stats = metrics.response
    if admission:
        return (n_objects, policy, to_ms(stats.mean), to_ms(stats.p95),
                service.current_primary().processor.deadline_misses, 0)
    return (f"{n_objects} (no AC)", policy,
            "-" if math.isnan(stats.mean) else f"{to_ms(stats.mean):.3f}",
            "-", "-", metrics.starved_writes)


def ablation_cpu_scheduler(object_counts: Sequence[int],
                           overload_objects: int, horizon: float,
                           seed: int = 8, jobs: int = 1) -> Table:
    """Ablation E: EDF vs RM at run time, the (RM-based) admission test fixed.

    The admitted loads pass the RM test, so neither policy misses an update
    deadline; the last two rows switch admission off and overload the CPU,
    where fixed-priority RM starves the aperiodic client RPCs entirely.
    """
    loads = [(count, True) for count in object_counts]
    loads.append((overload_objects, False))
    return _table("Ablation: run-time CPU scheduler (admission test fixed)",
                  ["objects", "policy", "mean response (ms)",
                   "p95 response (ms)", "deadline misses", "starved RPCs"],
                  _cpu_row,
                  [(count, policy, admission, horizon, seed)
                   for count, admission in loads
                   for policy in ("edf", "rm")],
                  jobs)


# ---------------------------------------------------------------------------
# Recovery (Section 4.4) and the future-work extensions
# ---------------------------------------------------------------------------

_CRASH_AT = 3.0


def run_failover(ping_period: float, horizon: float,
                 seed: int = 4) -> RTPBService:
    """One pair with a spare whose primary fail-stops at 3 s.

    The run behind each row of :func:`failover_latency_sweep`.
    """
    # Local import: repro.faults sits above the experiments layer.
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule

    config = ServiceConfig(ping_period=ping_period,
                           ping_timeout=ping_period / 2.0,
                           ping_max_misses=3)
    service = RTPBService(seed=seed, config=config, n_spares=1)
    specs = homogeneous_specs(3, window=ms(200.0), client_period=ms(100.0))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    FaultInjector(service,
                  FaultSchedule().crash(_CRASH_AT, PRIMARY_ADDRESS)).arm()
    service.run(horizon)
    return service


def _failover_row(point: Tuple[float, float, int]) -> Row:
    ping_period, horizon, seed = point
    service = run_failover(ping_period, horizon, seed)
    latency = failover_latency(service)
    resumed_after = _CRASH_AT + (latency or 0) + 0.2
    resumed = sum(1 for record in service.trace.select("client_response")
                  if record["issue"] > resumed_after)
    return (to_ms(ping_period),
            to_ms(latency) if latency else float("nan"),
            to_ms(service.config.failure_detection_latency()), resumed,
            bool(service.trace.select("recruited")))


def failover_latency_sweep(ping_periods: Sequence[float], horizon: float,
                           seed: int = 4, jobs: int = 1) -> Table:
    """Recovery: crash-to-takeover latency vs heartbeat period (Section 4.4).

    Detection tracks the configured bound ``ping_period + max_misses ×
    ping_timeout``; writes resume after takeover and the spare is
    recruited as the new backup.
    """
    return _table("Failover latency vs heartbeat period",
                  ["ping period (ms)", "measured failover (ms)",
                   "detection bound (ms)", "writes after takeover",
                   "new backup recruited"],
                  _failover_row,
                  [(period, horizon, seed) for period in ping_periods], jobs)


def _multibackup_row(point: Tuple[int, float, int]) -> Row:
    n_backups, horizon, seed = point
    specs = homogeneous_specs(4, window=ms(200.0), client_period=ms(100.0))
    service = _drive(
        RTPBService(server_class=MultiBackupServer, n_backups=n_backups,
                    seed=seed),
        specs, horizon)
    skew = max(
        abs(a.store.get(spec.object_id).seq - b.store.get(spec.object_id).seq)
        for spec in specs
        for a in service.backup_servers for b in service.backup_servers)
    return (n_backups, service.fabric.messages_sent,
            to_ms(collect_metrics(service, horizon, _WARMUP).mean_response),
            skew)


def extension_multibackup(backup_counts: Sequence[int], horizon: float,
                          seed: int = 11, jobs: int = 1) -> Table:
    """Extension: replication cost and response time vs number of backups.

    Fan-out to k backups multiplies fabric traffic linearly while client
    response stays flat — replication is off the write path.
    """
    return _table("Multi-backup extension: cost vs fan-out",
                  ["backups", "fabric msgs", "mean response (ms)",
                   "max inter-backup version skew"],
                  _multibackup_row,
                  [(count, horizon, seed) for count in backup_counts], jobs)


def _dcs_row(point: Tuple[SchedulingMode, float, float, int]) -> Row:
    mode, loss, horizon, seed = point
    service = _drive(
        RTPBService(seed=seed,
                    loss_model=BernoulliLoss(loss) if loss else None,
                    config=ServiceConfig(scheduling_mode=mode,
                                         ping_max_misses=40)),
        mixed_specs(8, windows=[ms(150), ms(250), ms(400)],
                    client_periods=[ms(50), ms(100)], seed=2),
        horizon)
    primary = service.current_primary()
    worst_variance = 0.0
    for object_id, period in primary.transmitter.effective_periods.items():
        finishes = primary.processor.finish_times.get(f"tx-{object_id}", [])
        if len(finishes) >= 3:
            worst_variance = max(worst_variance,
                                 phase_variance(finishes[1:], period))
    return (mode.value, loss, to_ms(worst_variance),
            to_ms(collect_metrics(service, horizon,
                                  _WARMUP).avg_max_distance))


def extension_dcs_transmission(loss_points: Sequence[float], horizon: float,
                               seed: int = 5, jobs: int = 1) -> Table:
    """Extension: update transmission on a pinwheel (Sr) timetable vs normal.

    The paper's "optimization of scheduling update messages" realised with
    its own Theorem 3 machinery, compared on transmission jitter and backup
    staleness.
    """
    return _table("DCS vs normal transmission scheduling",
                  ["mode", "loss", "worst tx phase variance (ms)",
                   "avg max distance (ms)"],
                  _dcs_row,
                  [(mode, loss, horizon, seed)
                   for mode in (SchedulingMode.NORMAL, SchedulingMode.DCS)
                   for loss in loss_points],
                  jobs)


def _deferrable_row(point: Tuple[str, float, int]) -> Row:
    variant, horizon, seed = point
    config = (ServiceConfig(use_deferrable_server=True, ds_budget=ms(6),
                            ds_period=ms(50))
              if variant == "deferrable" else ServiceConfig())
    # 36 offered objects: a high admitted load, where the bands differ.
    service = _drive(
        RTPBService(seed=seed, config=config),
        homogeneous_specs(36, window=ms(100.0), client_period=ms(100.0)),
        horizon)
    metrics = collect_metrics(service, horizon, _WARMUP)
    return (variant, metrics.admitted, to_ms(metrics.response.mean),
            to_ms(metrics.response.p95), metrics.starved_writes,
            service.current_primary().processor.deadline_misses)


def extension_deferrable_server(horizon: float, seed: int = 9,
                                jobs: int = 1) -> Table:
    """Extension: client RPCs in the plain band vs a deferrable-server reservation.

    The reservation gives RPCs bounded, guaranteed bandwidth (and is
    charged to admission as a periodic task) instead of plain EDF
    competition with the update tasks.
    """
    return _table("RPC scheduling: plain band vs deferrable server",
                  ["variant", "admitted", "mean resp (ms)", "p95 resp (ms)",
                   "starved", "deadline misses"],
                  _deferrable_row,
                  [(variant, horizon, seed)
                   for variant in ("plain", "deferrable")],
                  jobs)


# ---------------------------------------------------------------------------
# Theory: Theorem 5's boundary, Theorems 2-3's phase-variance bounds
# ---------------------------------------------------------------------------

_DELTA_P = ms(75.0)
_DELTA_B = ms(275.0)
_ELL = ms(5.0)
#: Theorem 5's bound on the transmission period: r* = (δ^B - δ^P) - ℓ.
_BOUNDARY = _DELTA_B - _DELTA_P - _ELL


def _theorem5_row(point: Tuple[str, float, float, int]) -> Row:
    """``("slack", s)`` grants r = r*/s through admission; ``("beyond", f)``
    re-installs the transmission task at r = f × r*, past the condition."""
    kind, factor, horizon, seed = point
    slack = factor if kind == "slack" else 1.0
    service = RTPBService(
        seed=seed, config=ServiceConfig(slack_factor=slack, ell=_ELL,
                                        retransmission_enabled=False))
    spec = ObjectSpec(0, "probe", 64, client_period=ms(50.0),
                      delta_primary=_DELTA_P, delta_backup=_DELTA_B)
    service.register(spec)
    transmitter = service.primary_server.transmitter
    if kind == "beyond":
        transmitter.remove_object(0)
        transmitter.add_object(0, _BOUNDARY * factor)
    period = transmitter.effective_periods[0]
    service.create_client([spec], write_jitter=0.0)
    service.run(horizon)
    violations = backup_external_violations(service, _WARMUP, horizon - 1.0)
    return (to_ms(period), round(period / _BOUNDARY, 3),
            sum(len(episodes) for episodes in violations.values()))


def theory_theorem5_boundary(slacks: Sequence[float],
                             beyond: Sequence[float], horizon: float,
                             seed: int = 9, jobs: int = 1) -> Table:
    """Theorem 5 empirically: δ^B violations vs the transmission period r.

    A reliable network, one probe object: zero violations at or below
    ``r* = (δ^B - δ^P) - ℓ`` for any phasing, violations well above it.
    """
    return _table("Theorem 5 boundary sweep: δ^B violations at the backup "
                  f"vs r (boundary r* = {to_ms(_BOUNDARY):.0f} ms)",
                  ["r (ms)", "r / r*", "violations"],
                  _theorem5_row,
                  [("slack", slack, horizon, seed) for slack in slacks]
                  + [("beyond", factor, horizon, seed) for factor in beyond],
                  jobs)


def _random_taskset(rng: random.Random, n_tasks: int) -> List[Task]:
    # Non-harmonic (prime-ish) periods: interference patterns then vary
    # across the hyperperiod, producing real, non-zero phase variance under
    # priority scheduling — the phenomenon the bounds are about.
    periods = [rng.choice([0.05, 0.07, 0.11, 0.13, 0.19])
               for _ in range(n_tasks)]
    shares = [rng.uniform(0.05, 0.7 / n_tasks) for _ in range(n_tasks)]
    return [Task(f"t{index}", period=period, wcet=max(1e-4, period * share))
            for index, (period, share) in enumerate(zip(periods, shares))]


def _worst_variance(tasks: Sequence[Task], scheduler: object,
                    horizon: float) -> float:
    """Worst task's measured phase variance on a priority-driven CPU."""
    sim = Simulator()
    cpu = Processor(sim, scheduler)
    for task in tasks:
        cpu.add_task(task)
    sim.run(until=horizon)
    return max(phase_variance(cpu.finish_times[task.name], task.period)
               for task in tasks)


def _phase_variance_row(point: Tuple[int, List[Task], float]) -> Row:
    index, tasks, horizon = point
    utilization = sum(task.utilization for task in tasks)
    # Inequality 2.1 assumes a deadline-meeting schedule, so RM is measured
    # only where the exact test passes.
    worst_rm = (_worst_variance(tasks, RateMonotonicScheduler(), horizon)
                if rm_schedulable_exact(tasks) else None)
    # Theorem 2's constructive schedule: periods compressed by x, variance
    # measured against the compressed period, bound x·p - e.
    compressed = [task.scaled(utilization) for task in tasks]
    # Theorem 3: zero variance under Sr.
    dcs = DistanceConstrainedScheduler(tasks, scheme="sr")
    sim = Simulator()
    executive = dcs.start(sim)
    sim.run(until=horizon)
    worst_dcs = max(
        phase_variance(executive.finish_times[task.name],
                       dcs.effective_periods[task.name])
        for task in tasks)
    return (index, len(tasks), round(utilization, 3),
            to_ms(_worst_variance(tasks, EDFScheduler(), horizon)),
            "-" if worst_rm is None else f"{to_ms(worst_rm):.3f}",
            to_ms(max(PhaseVarianceBounds.generic(task.period, task.wcet)
                      for task in tasks)),
            to_ms(_worst_variance(compressed, EDFScheduler(), horizon)),
            to_ms(max(PhaseVarianceBounds.edf(task.period, task.wcet,
                                              utilization)
                      for task in tasks)),
            to_ms(worst_dcs))


def theory_phase_variance(n_tasksets: int, horizon: float, seed: int = 7,
                          jobs: int = 1) -> Table:
    """Theorems 2-3: measured worst-task phase variance against the bounds.

    For random task sets: EDF and RM against Inequality 2.1's ``p - e``,
    the proof's period-compressed EDF schedule against Theorem 2's
    ``x·p - e``, and the distance-constrained scheduler ``Sr`` against
    Theorem 3's zero.
    """
    rng = random.Random(seed)
    return _table("Theorems 2-3: measured phase variance vs bounds "
                  "(ms, worst task)",
                  ["taskset", "n", "util x", "EDF meas", "RM meas",
                   "2.1 bound", "EDF compressed", "Thm2 bound",
                   "DCS Sr meas"],
                  _phase_variance_row,
                  [(index, _random_taskset(rng, rng.randint(2, 5)), horizon)
                   for index in range(n_tasksets)],
                  jobs)
