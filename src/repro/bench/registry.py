"""Named benchmark scenarios.

Each scenario is a callable taking ``quick`` (shrink the workload for CI
smoke runs) and returning :class:`BenchStats` — the *deterministic* counters
of the work it performed.  Wall timing happens in
:mod:`repro.bench.runner`; scenarios themselves never read a clock, so two
runs of the same scenario on the same revision report byte-identical
counters and digests.

Two families: microbenchmarks that exercise the DES hot paths directly
(``sim_engine``, ``tracer_select``, ``sim_release_storm``) and end-to-end
service runs (``service_run``, ``cluster_steady``, ``chaos_scenarios``,
...).  The wall time to regenerate each committed table is printed by
``python -m repro figures``, not measured here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.harness import RunFingerprint, run_fingerprint
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.trace import Tracer
from repro.units import ms


@dataclass(frozen=True)
class BenchStats:
    """Deterministic counters one scenario reports (``None`` = not tracked);
    the first four are a :class:`RunFingerprint`, in its field order."""

    #: Events the simulator dispatched (throughput numerator).
    events_executed: Optional[int] = None
    #: High-water mark of live (non-cancelled) queued events.
    peak_live_events: Optional[int] = None
    #: Records held by the tracer at the end of the run.
    trace_records: Optional[int] = None
    #: Whole-trace fingerprint; must be revision-stable for fixed seeds.
    digest: Optional[str] = None
    #: Scenario-specific counters (all JSON-able and deterministic).
    extra: Dict[str, Any] = field(default_factory=dict)


BenchFunc = Callable[[bool], BenchStats]

SCENARIOS: Dict[str, BenchFunc] = {}


def register(name: str) -> Callable[[BenchFunc], BenchFunc]:
    """Class-free registration decorator for scenario callables."""

    def _register(func: BenchFunc) -> BenchFunc:
        if name in SCENARIOS:
            raise ValueError(f"duplicate bench scenario {name!r}")
        SCENARIOS[name] = func
        return func

    return _register


def _noop() -> None:
    """The cheapest possible event payload."""


def _as_one_run(runs: List[RunFingerprint]) -> RunFingerprint:
    """Several runs as one: counts summed, the highest peak, and a digest
    over the runs' digests in order."""
    hasher = hashlib.sha256()
    for run in runs:
        hasher.update(run.digest.encode())
    return RunFingerprint(sum(run.events_executed for run in runs),
                          max(run.peak_live_events for run in runs),
                          sum(run.trace_records for run in runs),
                          hasher.hexdigest())


class _Clock:
    """Hand-cranked virtual clock for tracer-only scenarios."""

    def __init__(self) -> None:
        self.t = 0.0

    def read(self) -> float:
        return self.t


# ---------------------------------------------------------------------------
# DES core microbenchmarks
# ---------------------------------------------------------------------------


@register("sim_engine")
def sim_engine(quick: bool) -> BenchStats:
    """Event-loop hot path: tick chain, timeout cancel/re-arm, liveness probes.

    Models the shape of a real protocol run: a dense chain of dispatches, a
    standing population of deadline timers that are cancelled and re-armed
    on every tick (the watchdog/timeout pattern), and a periodic probe that
    samples ``pending_events()`` the way online monitors and stats
    collectors do.  A queue that scans the heap to answer liveness queries
    pays for it here.
    """
    sim = Simulator(seed=1)
    ticks = 20_000 if quick else 200_000
    standing = 1_000 if quick else 5_000
    tick_dt = 0.0005
    probe_dt = 0.01
    timeout = 5.0

    timers: List[Event] = [
        sim.schedule(timeout + index * tick_dt, _noop)
        for index in range(standing)
    ]
    state = {"fired": 0, "probe_sum": 0, "probes": 0}
    horizon = ticks * tick_dt

    def tick() -> None:
        n = state["fired"]
        state["fired"] = n + 1
        slot = n % standing
        timers[slot].cancel()
        timers[slot] = sim.schedule(timeout, _noop)
        if n + 1 < ticks:
            sim.schedule(tick_dt, tick)

    def probe() -> None:
        state["probe_sum"] += sim.pending_events()
        state["probes"] += 1
        if sim.now < horizon:
            sim.schedule(probe_dt, probe)

    sim.schedule(tick_dt, tick)
    sim.schedule(probe_dt, probe)
    sim.run()
    return BenchStats(
        *run_fingerprint(sim)[:3],  # nothing is traced: no digest
        extra={"ticks": state["fired"], "probes": state["probes"],
               "probe_sum": state["probe_sum"]},
    )


_TRACE_CATEGORIES = ("primary_write", "backup_apply", "client_response",
                     "update_sent", "link_send")


@register("tracer_select")
def tracer_select(quick: bool) -> BenchStats:
    """Metrics-style per-object ``select()`` sweeps over a mixed trace.

    The figure collectors issue one ``select(category, object=i)`` per
    object per metric; a tracer that scans the whole store per query turns
    every figure into an objects-times-trace product.
    """
    clock = _Clock()
    tracer = Tracer(clock=clock.read)
    n_objects = 32
    rows = 20_000 if quick else 100_000
    for index in range(rows):
        clock.t += 0.001
        category = _TRACE_CATEGORIES[index % len(_TRACE_CATEGORIES)]
        tracer.record(category, object=index % n_objects, seq=index)
    passes = 1 if quick else 5
    selected = 0
    for _ in range(passes):
        for obj in range(n_objects):
            selected += len(tracer.select("primary_write", object=obj))
            selected += len(tracer.select("backup_apply", object=obj))
        histogram = tracer.categories()
    return BenchStats(
        trace_records=len(tracer),
        digest=tracer.digest(),
        extra={"selected": selected, "categories": len(histogram)},
    )


@register("sim_release_storm")
def sim_release_storm(quick: bool) -> BenchStats:
    """Periodic release machinery: many tasks re-arming macro-events.

    A processor runs dozens of staggered periodic tasks (some jittered, so
    the release loops draw their jitter streams), which is exactly the
    workload the batched release path coalesces: every period is one
    re-armed macro-event instead of a fresh engine event.  The trace is
    narrowed to ``job_finish`` so the scheduler's other categories
    (``job_release``, ``job_preempt``, ...) exercise the tracer's dead
    fast path the way a long figure sweep does; the digest over the finish
    records pins the interleaving produced by the release machinery.
    """
    from repro.sched.processor import Processor
    from repro.sched.task import Task

    sim = Simulator(seed=2)
    sim.trace.enable_only("job_finish")
    cpu = Processor(sim, name="storm")
    n_tasks = 20 if quick else 60
    horizon = 4.0 if quick else 16.0
    for index in range(n_tasks):
        period = 0.005 + 0.00025 * index
        cpu.add_task(Task(
            name=f"t{index:03d}", period=period,
            wcet=period * (0.5 / n_tasks),
            phase=0.0001 * index,
            release_jitter=0.0005 if index % 4 == 0 else 0.0))
    sim.run(until=horizon)
    return BenchStats(
        *run_fingerprint(sim),
        extra={"tasks": n_tasks,
               "jobs_completed": cpu.jobs_completed,
               "deadline_misses": cpu.deadline_misses},
    )


# ---------------------------------------------------------------------------
# End-to-end service / chaos scenarios
# ---------------------------------------------------------------------------


@register("service_run")
def service_run(quick: bool) -> BenchStats:
    """One representative RTPB deployment run (the figures' unit of work)."""
    from repro.experiments.harness import run_scenario
    from repro.workload.scenarios import Scenario

    scenario = Scenario(
        n_objects=8 if quick else 24,
        window=ms(200.0),
        client_period=ms(100.0),
        loss_probability=0.02,
        horizon=5.0 if quick else 15.0,
        seed=4,
    )
    result = run_scenario(scenario)
    return BenchStats(
        *result.fingerprint,
        extra={"admitted": result.admitted,
               "responses": result.response.count,
               "delivery_rate": result.delivery_rate},
    )


@register("fastpath_steady")
def fastpath_steady(quick: bool) -> BenchStats:
    """Eager-with-fast-path steady state against the plain eager baseline.

    Runs the same workload under ``eager`` and ``eager_fastpath`` and
    reports both response-time means (microseconds, rounded — the fast
    path's acceptance criterion made measurable), the fast-path hit rate,
    and a digest over both traces interleaved.
    """
    from repro.experiments.harness import run_scenario
    from repro.workload.scenarios import Scenario

    runs: List[RunFingerprint] = []
    means: Dict[str, float] = {}
    hit_rate = 0.0
    for replication in ("eager", "eager_fastpath"):
        scenario = Scenario(
            n_objects=8 if quick else 24,
            window=ms(200.0), client_period=ms(100.0),
            horizon=5.0 if quick else 15.0, seed=4,
            replication=replication)
        result = run_scenario(scenario)
        runs.append(result.fingerprint)
        means[replication] = round(result.response.mean * 1e6, 1)
        if replication == "eager_fastpath":
            hit_rate = round(result.metrics.fastpath_hit_rate, 6)
    return BenchStats(
        *_as_one_run(runs),
        extra={"eager_mean_us": means["eager"],
               "fastpath_mean_us": means["eager_fastpath"],
               "fastpath_hit_rate": hit_rate},
    )


@register("fastpath_failover")
def fastpath_failover(quick: bool) -> BenchStats:
    """Fast-path pair through a primary crash, witness drain, and re-pair.

    The eager+fastpath deployment loses its primary mid-run; the bench
    counts drain cycles and degraded completions and pins the whole
    transition's trace digest, under the online invariant monitor — the
    violation count in ``extra`` must stay zero.
    """
    from repro.core.service import PRIMARY_ADDRESS
    from repro.experiments.harness import run_scenario
    from repro.faults.schedule import FaultSchedule
    from repro.workload.scenarios import Scenario

    scenario = Scenario(
        n_objects=8 if quick else 16,
        window=ms(200.0), client_period=ms(100.0),
        horizon=10.0 if quick else 20.0, seed=4, n_spares=1,
        replication="eager_fastpath")
    schedule = FaultSchedule().crash(4.0, PRIMARY_ADDRESS)
    result = run_scenario(scenario, fault_schedule=schedule, monitor=True)
    drains = sum(1 for record
                 in result.service.trace.select("fastpath_drain")
                 if record["phase"] == "complete")
    return BenchStats(
        *result.fingerprint,
        extra={"drains_completed": drains,
               "fastpath_hit_rate": round(result.metrics.fastpath_hit_rate,
                                          6),
               "degraded_responses": result.metrics.degraded_responses,
               "violations": len(result.violations)},
    )


def chaos_bench_names() -> List[str]:
    """The chaos catalogue entries the ``chaos_scenarios`` bench runs, sorted.

    Cluster and fast-path scenarios are excluded (they have their own
    ``cluster_*`` / ``fastpath_*`` benches); filtering keeps the bench's
    digest comparable across the revisions that introduced those catalogue
    entries.
    """
    from repro.faults.scenarios import SCENARIOS as CHAOS

    return sorted(name for name in CHAOS
                  if not name.startswith(("cluster", "fastpath")))


@register("chaos_scenarios")
def chaos_scenarios(quick: bool) -> BenchStats:
    """The :func:`chaos_bench_names` entries under the online invariant
    monitor (the first two with ``quick``)."""
    from repro.experiments.harness import run_scenario
    from repro.faults.scenarios import build

    names = chaos_bench_names()
    if quick:
        names = names[:2]
    runs: List[RunFingerprint] = []
    violations = 0
    for name in names:
        chaos = build(name, seed=1)
        result = run_scenario(chaos.workload, fault_schedule=chaos.schedule,
                              monitor=True)
        runs.append(result.fingerprint)
        violations += len(result.violations)
    return BenchStats(
        *_as_one_run(runs),
        extra={"scenarios": len(names), "violations": violations},
    )


@register("cluster_steady")
def cluster_steady(quick: bool) -> BenchStats:
    """Sharded steady state: N groups co-placed on a shared host pool.

    Measures the cluster layer's overhead — shared processors, per-group
    ports, the manager sweep — with no faults injected.  The digest covers
    every group's replication traffic interleaved on one trace.
    """
    from repro.experiments.harness import run_scenario
    from repro.workload.cluster import ClusterScenario

    scenario = (ClusterScenario(n_shards=4, n_hosts=3, n_objects=8,
                                horizon=6.0, seed=4) if quick else
                ClusterScenario(n_shards=16, n_hosts=6, n_objects=32,
                                horizon=20.0, seed=4))
    result = run_scenario(scenario)
    return BenchStats(
        *result.fingerprint,
        extra={"admitted": result.admitted,
               "responses": result.response.count,
               "groups": len(result.per_group),
               "delivery_rate": result.delivery_rate},
    )


@register("cluster_failover")
def cluster_failover(quick: bool) -> BenchStats:
    """Cluster chaos: one group's primary crash plus a whole-group host
    kill, under the invariant monitor.

    Exercises per-group failover, the manager sweep's full re-placement
    (admission re-checked on the survivors) and spare recruitment, all on
    a shared trace.
    """
    from repro.experiments.harness import run_scenario
    from repro.cluster.service import ClusterService
    from repro.faults.schedule import FaultSchedule
    from repro.workload.cluster import ClusterScenario, build_cluster

    scenario = (ClusterScenario(n_shards=4, n_hosts=4, n_objects=8,
                                horizon=10.0, seed=4) if quick else
                ClusterScenario(n_shards=16, n_hosts=6, n_objects=32,
                                horizon=20.0, seed=4))
    # Target the second group's hosts as initially placed (deterministic:
    # placement is a pure function of the scenario).
    probe = build_cluster(scenario)
    probe.start()
    doomed = sorted({member.host.address
                     for member in probe.groups[1].members})
    schedule = FaultSchedule().crash(3.0, "g00/primary")
    for address in doomed:
        schedule.kill_host(6.0, address)
    result = run_scenario(scenario, fault_schedule=schedule, monitor=True)
    service = result.service
    assert isinstance(service, ClusterService)
    replacements = sum(1 for record in service.trace.select("cluster_place")
                       if record["event"] == "replace")
    failovers = len(service.trace.select("failover"))
    return BenchStats(
        *result.fingerprint,
        extra={"admitted": result.admitted,
               "failovers": failovers,
               "replacements": replacements,
               "violations": len(result.violations)},
    )


@register("elastic_scaleup")
def elastic_scaleup(quick: bool) -> BenchStats:
    """Flash crowd through the full elastic control plane.

    A latency red line trips the autoscaler mid-burst: a host is
    recruited, a group is grown, and a migration wave repopulates the
    grown shard map — all under the cluster and migration invariant
    monitors.  The digest covers client traffic, the burst, and every
    control-plane record interleaved; the counters in ``extra`` pin the
    story (at least one commit, zero violations).
    """
    from repro.experiments.harness import run_scenario
    from repro.faults.schedule import FaultSchedule
    from repro.workload.elastic import ElasticScenario

    scenario = (ElasticScenario(n_shards=2, n_hosts=4, n_objects=12,
                                horizon=10.0, seed=4, latency_red=0.003,
                                low_watermark=0.0, max_groups=3,
                                max_hosts=6) if quick else
                ElasticScenario(n_shards=4, n_hosts=6, n_objects=24,
                                horizon=20.0, seed=4, latency_red=0.003,
                                low_watermark=0.0, max_groups=6,
                                max_hosts=10))
    schedule = FaultSchedule().flash_crowd(3.0, 2.0, 8.0)
    result = run_scenario(scenario, fault_schedule=schedule, monitor=True)
    summary = scenario.summary(result)
    return BenchStats(
        *result.fingerprint,
        extra={"scale_outs": summary["scale_outs"],
               "hosts_added": summary["hosts_added"],
               "migrations_committed": summary["migrations_committed"],
               "autoscale_actions": summary["autoscale_actions"],
               "violations": len(result.violations)},
    )


@register("migration_steady")
def migration_steady(quick: bool) -> BenchStats:
    """Back-to-back live migrations under steady client traffic.

    No autoscaler: a scripted sequence of freeze→transfer→barrier→commit
    hand-offs shuttles a batch of objects between two groups while every
    other object keeps serving.  Measures the migration machinery's own
    cost — snapshot injection, barrier polling, republish — and pins the
    hand-off count and zero-violation outcome in ``extra``.
    """
    from repro.elastic.migration import (
        COMMITTED,
        MigrationWindowInvariant,
        ShardMigration,
    )
    from repro.workload.cluster import ClusterScenario, build_cluster

    scenario = (ClusterScenario(n_shards=2, n_hosts=4, n_objects=8,
                                horizon=8.0, seed=4) if quick else
                ClusterScenario(n_shards=2, n_hosts=4, n_objects=16,
                                horizon=20.0, seed=4))
    cluster = build_cluster(scenario)
    cluster.start()
    monitor = MigrationWindowInvariant(cluster)
    monitor.attach()
    state = {"committed": 0, "launched": 0}
    hop = 2.0

    def launch() -> None:
        source, dest = cluster.groups
        if state["launched"] % 2:
            source, dest = dest, source
        moving = [spec.object_id
                  for spec in source.registered_specs()][:4]
        if moving:
            migration = ShardMigration(cluster, source, dest, moving,
                                       on_done=done)
            if migration.start():
                state["launched"] += 1
                return
        reschedule()

    def done(migration: ShardMigration) -> None:
        if migration.state == COMMITTED:
            state["committed"] += 1
        reschedule()

    def reschedule() -> None:
        if cluster.sim.now + hop < scenario.horizon - 1.0:
            cluster.sim.schedule(hop, launch)

    cluster.sim.schedule(1.0, launch)
    cluster.run(scenario.horizon)
    return BenchStats(
        *run_fingerprint(cluster.sim),
        extra={"migrations_launched": state["launched"],
               "migrations_committed": state["committed"],
               "violations": len(monitor.violations)},
    )


@register("replica_read_steady")
def replica_read_steady(quick: bool) -> BenchStats:
    """Read-heavy single service fronted by window-consistent replicas.

    Two read replicas subscribe to the primary's update stream and a
    closed-loop reader population issues one read per object per period;
    the digest covers the piggybacked replication traffic, the beacon
    loops and the served-read trace interleaved.  SLO accounting rides in
    ``extra`` — a steady-state run must deliver zero staleness-SLO
    violations.
    """
    from repro.experiments.harness import run_scenario
    from repro.workload.scenarios import Scenario

    scenario = Scenario(
        n_objects=8, window=ms(200.0), client_period=ms(100.0),
        horizon=6.0 if quick else 15.0, seed=4,
        n_replicas=2, read_period=ms(2.0) if quick else ms(1.0))
    result = run_scenario(scenario)
    metrics = result.metrics
    return BenchStats(
        *result.fingerprint,
        extra={"reads_served": metrics.read_staleness.count,
               "read_throughput": round(metrics.read_throughput, 3),
               "slo_violations": metrics.slo_violations,
               "fallback_rate": round(metrics.fallback_rate, 6)},
    )


@register("replica_read_failover")
def replica_read_failover(quick: bool) -> BenchStats:
    """Read-heavy cluster losing replicas two ways, under the monitor.

    One group's replica fail-stops (the manager sweep recruits a fresh
    seat); another's host is isolated, so its replica stays alive but
    refuses reads once provably stale — both failure modes must drive
    primary fallback while the ``replica_staleness`` invariant stays
    silent.  Exercises replica placement, subscription recovery and the
    router's fallback path on a shared trace.
    """
    from repro.experiments.harness import run_scenario
    from repro.cluster.service import ClusterService
    from repro.faults.monitor import REPLICA_STALENESS
    from repro.faults.schedule import FaultSchedule
    from repro.workload.cluster import ClusterScenario

    scenario = ClusterScenario(
        n_shards=2, n_hosts=5, n_objects=8,
        horizon=12.0 if quick else 20.0, seed=4,
        n_replicas=1,
        read_period=ms(20.0) if quick else ms(10.0))
    schedule = (FaultSchedule()
                .crash(3.0, "g00/replica0")
                .isolate(5.0, 4.0, "g01/replica0"))
    result = run_scenario(scenario, fault_schedule=schedule, monitor=True)
    service = result.service
    assert isinstance(service, ClusterService)
    recruited = sum(1 for record in service.trace.select("cluster_place")
                    if record["event"] == "replica")
    return BenchStats(
        *result.fingerprint,
        extra={"fallbacks": len(service.trace.select("read_fallback")),
               "replicas_recruited": recruited,
               "staleness_violations": sum(
                   violation.kind == REPLICA_STALENESS
                   for violation in result.violations)},
    )
