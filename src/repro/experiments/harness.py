"""Scenario runner: build, run, collect.

One :func:`run_scenario` call produces a :class:`RunResult` with every
metric the figures consume, whatever the topology: a single pair
(:class:`~repro.workload.scenarios.Scenario`), a sharded cluster
(:class:`~repro.workload.cluster.ClusterScenario`) or an autoscaled one
(:class:`~repro.workload.elastic.ElasticScenario`).  Tracing is restricted
to the categories the collectors need (``METRIC_TRACE_CATEGORIES`` and its
cluster/elastic supersets), which keeps long sweeps fast and
memory-bounded; pass ``full_trace=True`` when a test wants to inspect
scheduler-level events too.

Collection is split in two layers so sweeps can cross process boundaries:

- :class:`~repro.metrics.summary.RunMetrics` is the *picklable* half —
  plain numbers and :class:`~repro.metrics.collectors.SummaryStats`, no
  live objects.  It is what :mod:`repro.parallel` workers ship back to the
  parent process.
- :class:`RunResult` wraps the metrics together with the live deployment
  (plus the armed injector, the online monitors and the elastic controller
  where the run has them) for callers that inspect traces directly.

Chaos runs ride the same entry point: pass a
:class:`~repro.faults.schedule.FaultSchedule` and the faults fire at their
virtual times during the run — cluster schedules may use the
cluster-scoped targets (``"g03/primary"``, ``kill_host``, ``isolate``) —
with optional online invariant monitors attached (they subscribe to the
tracer, so the storage filter does not blind them).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, NamedTuple,
                    Optional)

from repro.core.service import RTPBService
from repro.metrics.collectors import (
    degraded_responses,
    fastpath_hit_rate,
    fastpath_response_split,
)
from repro.metrics.summary import MetricsView, RunMetrics, collect_metrics
from repro.workload.scenarios import Scenario, build_scenario

if TYPE_CHECKING:
    from repro.cluster.monitor import ClusterInvariantMonitor
    from repro.cluster.service import ClusterService
    from repro.elastic.controller import ElasticController
    from repro.faults.injector import FaultInjector
    from repro.faults.monitor import InvariantViolation, TraceMonitor
    from repro.faults.schedule import FaultSchedule
    from repro.sim.engine import Simulator
    from repro.workload.cluster import ClusterScenario
    from repro.workload.elastic import ElasticScenario

#: Trace categories the metric collectors consume.
METRIC_TRACE_CATEGORIES = (
    "client_response",
    "primary_write",
    "backup_apply",
    "backup_apply_stale",
    "update_sent",
    "retx_request",
    "registration",
    "server_crash",
    "server_recover",
    "failover",
    "recruited",
    "peer_declared_dead",
    "client_activated",
    "fault_injected",
    "invariant_violation",
    # Read path (repro.replicas).  Replica-free runs never emit these, so
    # enabling them leaves every historical trace digest byte-identical.
    "client_read",
    "read_served",
    "read_refused_stale",
    "read_rejected",
    "read_fallback",
    "read_unserved",
    "replica_subscribe",
    "replica_sync",
    # Fast path / degraded states (PR 8).  Paper-faithful runs never emit
    # these, so enabling them leaves historical trace digests byte-identical.
    "fastpath_commit",
    "fastpath_drain",
    "client_response_degraded",
    "replication_degraded",
)


class RunFingerprint(NamedTuple):
    """What two runs of one spec must agree on, read off the simulator."""

    events_executed: int
    #: High-water mark of live (non-cancelled) queued events.
    peak_live_events: int
    trace_records: int
    #: SHA-256 over the retained trace.
    digest: str


def run_fingerprint(sim: "Simulator") -> RunFingerprint:
    return RunFingerprint(sim.events_executed, sim.peak_pending_events,
                          len(sim.trace), sim.trace.digest())


def _by_detection_time(findings: Iterable[List["InvariantViolation"]]
                       ) -> List["InvariantViolation"]:
    # Each monitor's list is already in detection order and the sort is
    # stable, so monitors keep their attach order within an instant.
    return sorted((finding for each in findings for finding in each),
                  key=lambda finding: finding.time)


@dataclass
class RunResult(MetricsView):
    """The single description of one finished run.

    The metric fields are exposed both as ``result.metrics`` (the picklable
    :class:`RunMetrics`) and, through :class:`MetricsView`, as flat
    read-only properties (``result.response`` / ``result.admitted``).  The
    cluster and elastic fields stay empty on topologies that lack them.
    """

    scenario: "Scenario | ClusterScenario"
    service: "RTPBService | ClusterService"
    metrics: RunMetrics
    #: Set on chaos runs: the armed injector.
    injector: Optional[FaultInjector] = None
    #: Every online monitor the run attached, in attach order; read their
    #: findings through :attr:`violations` / :attr:`degraded`.
    monitors: "List[TraceMonitor | ClusterInvariantMonitor]" = field(
        default_factory=list)
    #: Cluster runs: per-group :class:`RunMetrics` by group name, gid order.
    per_group: Dict[str, RunMetrics] = field(default_factory=dict)
    #: Elastic runs: the control plane.
    controller: Optional[ElasticController] = None

    @property
    def monitor(self) -> "TraceMonitor | ClusterInvariantMonitor | None":
        """The topology's own invariant monitor (the first attached)."""
        return self.monitors[0] if self.monitors else None

    @property
    def violations(self) -> List["InvariantViolation"]:
        """Every monitor's violations, merged in detection order."""
        return _by_detection_time(
            monitor.violations for monitor in self.monitors)

    @property
    def degraded(self) -> List["InvariantViolation"]:
        """Every monitor's degraded-state findings, merged likewise."""
        return _by_detection_time(
            monitor.degraded for monitor in self.monitors)

    @property
    def fingerprint(self) -> RunFingerprint:
        return run_fingerprint(self.service.sim)

    def elastic_summary(self) -> Dict[str, Any]:
        """JSON-safe control-plane rollup (empty without a controller)."""
        if self.controller is None:
            return {}
        summary = self.controller.summary()
        if self.monitors:
            summary["migration_violations"] = sum(
                violation.kind.startswith("migration_")
                for violation in self.violations)
        return summary


def run_scenario(scenario: "Scenario | ClusterScenario", warmup: float = 2.0,
                 full_trace: bool = False,
                 fault_schedule: Optional[FaultSchedule] = None,
                 monitor: bool = False) -> RunResult:
    """Build the scenario's deployment, run it, and collect metrics.

    ``warmup`` seconds at the head of the run are excluded from every
    metric (registration, first transmissions, and watchdog priming are
    transient).  With ``fault_schedule`` the run becomes a chaos run; with
    ``monitor=True`` the topology's invariant monitors check invariants
    online and their findings ride back on the result.

    The scenario's type picks the builder, the trace allow-list, the
    monitors and the collector; the stage order is the same for all.  It
    matters: the deployment starts (placement, admission, clients) before
    the monitors attach, because they seed their window tables from the
    registered specs, and the elastic controller starts last so its first
    tick sees a settled cluster.
    """
    # Local imports: repro.faults, repro.cluster and repro.elastic sit
    # above the harness in the layering.
    service: Any  # RTPBService or ClusterService: the stages are duck-typed
    elastic: "ElasticScenario | None" = None
    if isinstance(scenario, Scenario):
        service = build_scenario(scenario)
        categories = METRIC_TRACE_CATEGORIES
    else:
        from repro.cluster.harness import CLUSTER_TRACE_CATEGORIES
        from repro.elastic.harness import ELASTIC_TRACE_CATEGORIES
        from repro.workload.cluster import build_cluster
        from repro.workload.elastic import ElasticScenario

        service = build_cluster(scenario)
        categories = CLUSTER_TRACE_CATEGORIES
        if isinstance(scenario, ElasticScenario):
            elastic = scenario
            categories = ELASTIC_TRACE_CATEGORIES
    if not full_trace:
        service.trace.enable_only(*categories)
    service.start()
    injector = None
    if fault_schedule is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(service, fault_schedule)
        injector.arm()
    monitors: "List[TraceMonitor | ClusterInvariantMonitor]" = []
    on_group_added = None
    if monitor and isinstance(scenario, Scenario):
        from repro.faults.monitor import InvariantMonitor

        monitors.append(InvariantMonitor(service))
    elif monitor:
        from repro.cluster.monitor import ClusterInvariantMonitor

        cluster_monitor = ClusterInvariantMonitor(service)
        monitors.append(cluster_monitor)
        # Groups an elastic controller creates mid-run get monitored too.
        on_group_added = cluster_monitor.add_group
        if elastic is not None:
            from repro.elastic.migration import MigrationWindowInvariant

            monitors.append(MigrationWindowInvariant(service))
    for attached in monitors:
        attached.attach()
    controller = None
    if elastic is not None and elastic.elastic_enabled:
        from repro.elastic.controller import ElasticController

        controller = ElasticController(service, elastic,
                                       on_group_added=on_group_added)
        controller.start()
    service.run(scenario.horizon)
    per_group: Dict[str, RunMetrics] = {}
    if isinstance(scenario, Scenario):
        metrics = collect(scenario, service, warmup)
    else:
        from repro.cluster.metrics import collect_cluster

        bundle = collect_cluster(service, scenario.horizon, warmup)
        metrics, per_group = bundle.cluster, bundle.per_group
    return RunResult(
        scenario=scenario,
        service=service,
        metrics=metrics,
        injector=injector,
        monitors=monitors,
        per_group=per_group,
        controller=controller,
    )


def collect(scenario: Scenario, service: RTPBService,
            warmup: float = 2.0) -> RunMetrics:
    """Compute :class:`RunMetrics` for an already-finished run."""
    split = fastpath_response_split(service, start=warmup)
    return replace(
        collect_metrics(service, scenario.horizon, warmup),
        fastpath_hit_rate=fastpath_hit_rate(service, start=warmup),
        fast_response=split["fast"],
        deferred_response=split["deferred"],
        degraded_responses=degraded_responses(service),
    )
