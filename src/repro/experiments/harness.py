"""Scenario runner: build, run, collect.

One :func:`run_scenario` call produces a :class:`RunResult` with every
metric the figures consume, whatever the topology: a single pair
(:class:`~repro.workload.scenarios.Scenario`), a sharded cluster
(:class:`~repro.workload.cluster.ClusterScenario`) or an autoscaled one
(:class:`~repro.workload.elastic.ElasticScenario`).  The scenario value
names its builder, trace allow-list (``METRIC_TRACE_CATEGORIES`` or a
cluster/elastic superset, keeping sweeps fast and memory-bounded;
``full_trace=True`` keeps everything), monitors and control plane.

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
virtual times during the run (targets: see
:func:`repro.core.group.resolve_target`) — with optional online invariant
monitors attached (they subscribe to the tracer, so the storage filter
does not blind them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, NamedTuple,
                    Optional)

from repro.metrics.collectors import METRIC_TRACE_CATEGORIES
from repro.metrics.summary import (MetricsView, RunMetrics, collect_metrics,
                                   collect_views)

if TYPE_CHECKING:
    from repro.cluster.service import ClusterService
    from repro.core.service import RTPBService
    from repro.elastic.controller import ElasticController
    from repro.faults.injector import FaultInjector
    from repro.faults.monitor import InvariantViolation, TraceMonitor
    from repro.faults.schedule import FaultSchedule
    from repro.sim.engine import Simulator
    from repro.workload.scenarios import BaseScenario


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

    scenario: "BaseScenario"
    service: "RTPBService | ClusterService"
    metrics: RunMetrics
    #: Set on chaos runs: the armed injector.
    injector: Optional[FaultInjector] = None
    #: Every online monitor the run attached, in attach order; read their
    #: findings through :attr:`violations` / :attr:`degraded`.
    monitors: "List[TraceMonitor]" = field(default_factory=list)
    #: Cluster runs: per-group :class:`RunMetrics` by group name, gid order.
    per_group: Dict[str, RunMetrics] = field(default_factory=dict)
    #: Elastic runs: the control plane.
    controller: Optional[ElasticController] = None

    @property
    def monitor(self) -> "TraceMonitor | None":
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


def run_scenario(scenario: "BaseScenario", warmup: float = 2.0,
                 full_trace: bool = False,
                 fault_schedule: Optional[FaultSchedule] = None,
                 monitor: bool = False) -> RunResult:
    """Build the scenario's deployment, run it, and collect metrics.

    ``warmup`` seconds at the head of the run are excluded from every
    metric (registration, first transmissions, and watchdog priming are
    transient).  With ``fault_schedule`` the run becomes a chaos run; with
    ``monitor=True`` the scenario's invariant monitors check invariants
    online and their findings ride back on the result.

    The stage order matters: the deployment starts (placement, admission,
    clients) before the monitors attach, because they seed their window
    tables from the registered specs, and an elastic control plane starts
    last so its first tick sees a settled cluster.
    """
    service = scenario.build()
    if not full_trace:
        service.trace.enable_only(*scenario.trace_categories)
    service.start()
    injector = None
    if fault_schedule is not None:
        # Local import: repro.faults sits above the harness in the layering.
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(service, fault_schedule)
        injector.arm()
    monitors = scenario.monitors(service) if monitor else []
    for attached in monitors:
        attached.attach()
    controller = scenario.control_plane(service, monitors)
    service.run(scenario.horizon)
    metrics, per_group = collect_views(service, scenario.horizon, warmup)
    return RunResult(
        scenario=scenario,
        service=service,
        metrics=metrics,
        injector=injector,
        monitors=monitors,
        per_group=per_group,
        controller=controller,
    )


def collect(scenario: "BaseScenario",
            service: "RTPBService | ClusterService",
            warmup: float = 2.0) -> RunMetrics:
    """Compute the whole deployment's :class:`RunMetrics` for an
    already-finished run, whatever its topology."""
    return collect_metrics(service, scenario.horizon, warmup)
