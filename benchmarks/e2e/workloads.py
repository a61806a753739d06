"""The five benchmark workloads, each split into separately timed phases.

Every workload is an object with ``build`` / ``simulate`` / ``collect`` /
``digest`` methods (called once each, in that order, by ``child.py``, which
times them) and a ``summary`` that turns the finished run into plain
numbers.  Only public ``repro`` functions and attributes are used; the
phase split is the one ``run_scenario`` and its cluster/elastic twins make
internally, called here one step at a time so each step gets its own wall.

Why these five (the reasons also sit in ``BENCHMARK.json`` and README.md):

- ``pair_steady``   few objects, high update rate, 5 % loss: the message
  path (``core`` codec -> ``xkernel`` -> ``net``) and ``sched.processor`` do
  most of the work; collectors do little.
- ``cluster_wide``  48 objects over 16 groups on 6 shared hosts: post-run
  collection (objects x records ``Tracer.select`` scans) dominates and
  placement, shared processors and the manager sweep are exercised.
- ``elastic_chaos`` flash crowds plus primary crashes under the invariant
  monitors: the only workload where ``faults``, ``elastic`` and ``core``
  failure detection do real work, and the one that yields failover time.
- ``read_heavy``    1 ms reads beside 100 ms writes through two replicas:
  ``replicas`` routing/serving and the largest retained trace.
- ``figure_sweep``  Fig 6 + Fig 8 regenerated point by point: 24 short runs
  whose fixed per-run costs the long steady runs hide.

Sizes: ``FULL`` is the seed-commit sizing (about three wall seconds per run
on the 2-core reference box); ``QUICK`` keeps every workload under a second
for the test-suite.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Any, Dict, List, Sequence

from repro.cluster.harness import CLUSTER_TRACE_CATEGORIES
from repro.cluster.metrics import collect_cluster
from repro.cluster.monitor import ClusterInvariantMonitor
from repro.elastic.controller import ElasticController
from repro.elastic.harness import ELASTIC_TRACE_CATEGORIES
from repro.elastic.migration import MigrationWindowInvariant
from repro.experiments.figures import (
    figure6_response_time_with_admission,
    figure8_distance_vs_loss,
)
from repro.experiments.harness import METRIC_TRACE_CATEGORIES, collect
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.metrics.collectors import failover_latencies
from repro.units import ms, to_ms
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.elastic import ElasticScenario
from repro.workload.scenarios import Scenario, build_scenario

#: Simulated seconds at the head of a run excluded from simulated-time
#: metrics (registration and watchdog priming are transient) — the same
#: value ``run_scenario`` uses.
WARMUP = 2.0

#: Operations issued in the last ``TAIL`` simulated seconds are not counted
#: as attempted: an open-loop write issued just before the horizon is still
#: in flight when the run stops, which is not a failure.  0.1 s is twenty
#: link-delay bounds; an operation older than that and unanswered failed.
TAIL = 0.1

#: What differs between the two sizes: horizons in simulated seconds, and
#: for ``--quick`` fewer objects and sweep points where a horizon alone
#: cannot bring the run under a second.
FULL: Dict[str, Dict[str, Any]] = {
    "pair_steady": {"horizon": 33.0},
    "cluster_wide": {"horizon": 11.0},
    "elastic_chaos": {"horizon": 14.0},
    "read_heavy": {"horizon": 12.5},
    "figure_sweep": {
        "fig6_horizon": 2.5, "fig8_horizon": 3.0,
        "object_counts": (8, 24, 40, 56),
        "windows": (ms(100.0), ms(200.0), ms(400.0)),
        "losses": (0.0, 0.02, 0.06, 0.10),
        "write_periods": (ms(100.0), ms(200.0), ms(400.0))},
}
QUICK: Dict[str, Dict[str, Any]] = {
    "pair_steady": {"horizon": 6.0},
    "cluster_wide": {"horizon": 3.5, "n_objects": 24},
    "elastic_chaos": {"horizon": 5.0, "n_objects": 16},
    "read_heavy": {"horizon": 3.5},
    "figure_sweep": {
        "fig6_horizon": 2.2, "fig8_horizon": 2.5,
        "object_counts": (8, 40), "windows": (ms(100.0), ms(200.0)),
        "losses": (0.0, 0.06), "write_periods": (ms(100.0), ms(200.0))},
}


class Deployment:
    """A workload that runs one service or cluster to a horizon.

    Subclasses build ``self.deployment`` (started, ready to simulate) and
    say how to collect; the two-step simulate and the operation accounting
    are shared.
    """

    name = ""
    scenario: Any = None
    deployment: Any = None
    metrics: Any = None
    trace_digest = ""

    def build(self) -> None:
        raise NotImplementedError

    def collect(self) -> None:
        raise NotImplementedError

    def simulate(self) -> None:
        """Run to the horizon, reading the issue counters ``TAIL`` early.

        Two ``run`` calls dispatch exactly the events one call would (the
        clock only parks at the cut between them), so the trace is the one
        ``run_scenario`` produces.
        """
        horizon = self.scenario.horizon
        self._cut = horizon - TAIL
        self.deployment.run(self._cut)
        self._writes_attempted = sum(
            client.writes_issued + client.writes_refused
            for client in self.deployment.clients)
        self._reads_attempted = sum(
            reader.reads_issued for reader in self._readers())
        self.deployment.run(horizon)

    def digest(self) -> None:
        self.trace_digest = self.deployment.trace.digest()

    def _readers(self) -> Sequence[Any]:
        return ()

    def _violations(self) -> int:
        return 0

    def summary(self) -> Dict[str, Any]:
        trace = self.deployment.trace
        cut = self._cut
        writes_answered = sum(
            1 for record in (trace.select("client_response")
                             + trace.select("client_response_degraded"))
            if record["issue"] < cut)
        reads_served = sum(
            1 for record in (trace.select("read_served")
                             + trace.select("client_read"))
            if record["issue"] < cut)
        # A live migration hands each moved object's snapshot to the new
        # primary as an ordinary client write; those are answered like any
        # other, so they count as attempted too.
        transferred = sum(record["snapshots"]
                          for record in trace.select("migration_transfer")
                          if record.time < cut)
        attempted = (self._writes_attempted + transferred
                     + self._reads_attempted)
        completed = writes_answered + reads_served
        violations = self._violations()
        failed = attempted - completed + violations
        metrics = self.metrics
        latencies = failover_latencies(self.deployment)
        return {
            "digest": self.trace_digest,
            "attempted": attempted,
            "completed": completed,
            "failed": failed,
            "requested": self.scenario.n_objects,
            "admitted": metrics.admitted,
            "violations": violations,
            "model": {
                "model.resp_mean_ms": to_ms(metrics.response.mean),
                "model.resp_p50_ms": to_ms(metrics.response.p50),
                "model.resp_p99_ms": to_ms(metrics.response.p99),
                "model.resp_p999_ms": to_ms(metrics.response.p999),
                "model.resp_count": metrics.response.count,
                "model.distance_avg_max_ms": to_ms(metrics.avg_max_distance),
                "model.inconsistency_avg_ms": to_ms(
                    metrics.avg_inconsistency),
                "model.failover_ms": to_ms(max(latencies, default=0.0)),
                "model.read_staleness_p99_ms": (
                    to_ms(metrics.read_staleness.p99)
                    if metrics.read_staleness.count else 0.0),
                "model.ops_failed_frac": failed / attempted,
            },
        }


class PairSteady(Deployment):
    name = "pair_steady"

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.scenario = Scenario(
            n_objects=8, window=ms(40.0), client_period=ms(20.0),
            loss_probability=0.05, seed=seed, **size)

    def build(self) -> None:
        self.deployment = build_scenario(self.scenario)
        self.deployment.trace.enable_only(*METRIC_TRACE_CATEGORIES)
        self.deployment.start()

    def collect(self) -> None:
        self.metrics = collect(self.scenario, self.deployment, WARMUP)


class ReadHeavy(PairSteady):
    name = "read_heavy"

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.scenario = Scenario(
            n_objects=8, window=ms(200.0), client_period=ms(100.0),
            n_replicas=2, read_period=ms(1.0), seed=seed, **size)

    def _readers(self) -> Sequence[Any]:
        return [reader for extension in self.deployment.extensions
                for reader in getattr(extension, "readers", ())]


class ClusterWide(Deployment):
    name = "cluster_wide"
    categories = CLUSTER_TRACE_CATEGORIES

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.scenario = ClusterScenario(**{
            "n_shards": 16, "n_hosts": 6, "n_objects": 48,
            "loss_probability": 0.02, "seed": seed, **size})

    def build(self) -> None:
        self.deployment = build_cluster(self.scenario)
        self.deployment.trace.enable_only(*self.categories)
        self.deployment.start()

    def collect(self) -> None:
        self.metrics = collect_cluster(
            self.deployment, self.scenario.horizon, WARMUP).cluster


class ElasticChaos(ClusterWide):
    """Two flash crowds and three primary crashes on an autoscaled cluster.

    The fault times are fixed fractions of the horizon, jittered from the
    seed, and the three crashes hit three distinct initial groups chosen
    from the seed, so every seed is a different interleaving of scale-out,
    migration and failover.  Only fault kinds whose chaos-catalogue entries
    are violation-free are used (``flash_crowd``,
    ``scaleup_race_with_failover``): the monitors run at their defaults and
    any violation fails the run.
    """

    name = "elastic_chaos"
    categories = ELASTIC_TRACE_CATEGORIES

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.scenario = ElasticScenario(**{
            "n_shards": 4, "n_hosts": 6, "n_objects": 32,
            "latency_red": 0.003, "low_watermark": 0.0, "max_groups": 8,
            "max_hosts": 12, "loss_probability": 0.0, "seed": seed, **size})
        horizon = self.scenario.horizon
        rng = random.Random(seed)

        def at(fraction: float) -> float:
            return horizon * (fraction + rng.uniform(-0.04, 0.04))

        crashed = rng.sample(range(self.scenario.n_shards), 3)
        burst = min(2.0, horizon / 12.0)
        self.schedule = (
            FaultSchedule()
            .flash_crowd(at(0.15), burst, 8.0)
            .crash(at(0.35), f"g{crashed[0]:02d}/primary")
            .crash(at(0.50), f"g{crashed[1]:02d}/primary")
            .flash_crowd(at(0.65), burst, 8.0)
            .crash(at(0.85), f"g{crashed[2]:02d}/primary"))

    def build(self) -> None:
        super().build()
        cluster = self.deployment
        self.injector = FaultInjector(cluster, self.schedule)
        self.injector.arm()
        self.monitor = ClusterInvariantMonitor(cluster)
        self.monitor.attach()
        self.migration_monitor = MigrationWindowInvariant(cluster)
        self.migration_monitor.attach()
        self.controller = ElasticController(
            cluster, self.scenario, on_group_added=self.monitor.add_group)
        self.controller.start()

    def _violations(self) -> int:
        return (len(self.monitor.violations)
                + len(self.migration_monitor.violations))


class FigureSweep:
    """Regenerate Fig 6 and Fig 8 serially: 12 + 12 independent runs
    (object counts x windows, loss rates x write periods).

    Build, collection and digest happen inside every point, out of reach of
    an outside stopwatch, so the whole sweep is the simulate phase; the
    digest phase renders and hashes the two tables.  An operation here is
    one sweep point.
    """

    name = "figure_sweep"

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.seed = seed
        self.size = size

    def build(self) -> None:
        pass

    def simulate(self) -> None:
        size = self.size
        self.fig6 = figure6_response_time_with_admission(
            object_counts=size["object_counts"], windows=size["windows"],
            horizon=size["fig6_horizon"], seed=self.seed, jobs=1)
        self.fig8 = figure8_distance_vs_loss(
            loss_probabilities=size["losses"],
            write_periods=size["write_periods"],
            horizon=size["fig8_horizon"], seed=self.seed, jobs=1)

    def collect(self) -> None:
        pass

    def digest(self) -> None:
        self.table_digests = [
            hashlib.sha256(series.render().encode()).hexdigest()
            for series in (self.fig6, self.fig8)]

    def summary(self) -> Dict[str, Any]:
        responses = _points(self.fig6)
        values = responses + _points(self.fig8)
        failed = sum(1 for value in values if not math.isfinite(value))
        return {
            "digest": "+".join(self.table_digests),
            "attempted": len(values),
            "completed": len(values) - failed,
            "failed": failed,
            "violations": 0,
            "model": {
                # The one simulated-time figure a sweep has for every
                # point: Fig 6 plots mean client response per point.
                "model.resp_mean_ms": sum(responses) / len(responses),
                "model.ops_failed_frac": failed / len(values),
            },
        }


def _points(series: Any) -> List[float]:
    return [y for label in series.curves
            for _x, y in series.curve(label)]


WORKLOADS = {cls.name: cls for cls in (
    PairSteady, ClusterWide, ElasticChaos, ReadHeavy, FigureSweep)}


def make(name: str, seed: int, quick: bool) -> Any:
    return WORKLOADS[name](seed, (QUICK if quick else FULL)[name])
