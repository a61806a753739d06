"""Elastic cluster scenarios: every knob of an autoscaled run, as a value.

:class:`ElasticScenario` extends :class:`ClusterScenario` with the
``repro.elastic`` control-plane knobs — the autoscaler's hysteresis
watermarks, the overload-shedding red line, and the live-migration timing
parameters.  It stays frozen, slotted and picklable, so elastic sweeps
ride the existing :mod:`repro.parallel` machinery unchanged; the
scenario names the elastic stages
:func:`repro.experiments.harness.run_scenario` adds — the migration
invariant among its monitors, and the controller as its control plane.

The same layering rule as :mod:`repro.workload.cluster` applies: this
module must never be imported by :mod:`repro.cluster` or
:mod:`repro.elastic` at module level — the harness imports it, not the
other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, List, Optional, Tuple

from repro.elastic.controller import ElasticController
from repro.elastic.harness import ELASTIC_TRACE_CATEGORIES
from repro.elastic.migration import MigrationWindowInvariant
from repro.workload.cluster import ClusterScenario


@dataclass(frozen=True, slots=True)
class ElasticScenario(ClusterScenario):
    """Parameters for one elastic (autoscaled) cluster run.

    All :class:`ClusterScenario` knobs apply; the additions below govern
    the :class:`~repro.elastic.controller.ElasticController` attached by
    the harness.  ``elastic_enabled=False`` turns the whole
    control plane off, leaving a byte-identical plain cluster run.
    """

    elastic_enabled: bool = True

    # -- autoscaler (hysteresis over the collector stream) ---------------
    #: Sampling period of the autoscaler loop, seconds.
    autoscale_period: float = 0.5
    #: Peak planned host utilization above which a sample counts as
    #: pressure (the scale-out direction).
    high_watermark: float = 0.70
    #: Peak planned host utilization below which a sample counts as idle
    #: (the scale-in direction).
    low_watermark: float = 0.15
    #: Consecutive pressure samples required before scaling out.
    high_samples: int = 3
    #: Consecutive idle samples required before scaling in.
    low_samples: int = 8
    #: Minimum spacing between autoscaler actions, seconds.
    autoscale_cooldown: float = 2.0
    #: p99 client response time that counts as pressure, seconds
    #: (0 disables the latency trigger; planned utilization cannot see a
    #: flash crowd, only the response-time stream can).
    latency_red: float = 0.0
    #: Host-pool ceiling for scale-out recruitment (0 = never add hosts).
    max_hosts: int = 0
    #: Group-count ceiling for scale-out (0 = never add groups).
    max_groups: int = 0
    #: Scale-in floor: never retire below this many groups.
    min_groups: int = 1

    # -- overload shedding (graceful window degradation) -----------------
    shed_enabled: bool = True
    #: Sampling period of the shedding loop, seconds.
    shed_period: float = 0.5
    #: Peak planned host utilization above which windows are widened.
    shed_red_line: float = 0.92
    #: Multiplier applied to δ = δ^B − δ^P when degrading a window.
    shed_factor: float = 2.0
    #: Pressure-free seconds before degraded windows are restored.
    shed_cooldown: float = 3.0

    # -- live migration timing -------------------------------------------
    #: Freeze-to-transfer delay, seconds: long enough for in-flight write
    #: RPCs issued before the freeze to drain (≥ the RPC deadline).
    migration_tail: float = 0.05
    #: Barrier polling period, seconds.
    barrier_poll: float = 0.01
    #: Give up (abort, unfreeze at the source) if the reconfiguration
    #: barrier has not been reached after this long, seconds.
    barrier_timeout: float = 1.0

    trace_categories: ClassVar[Tuple[str, ...]] = ELASTIC_TRACE_CATEGORIES

    def monitors(self, deployment: Any) -> List[Any]:
        return (ClusterScenario.monitors(self, deployment)
                + [MigrationWindowInvariant(deployment)])

    def control_plane(self, deployment: Any,
                      monitors: List[Any]) -> Optional[ElasticController]:
        # Groups the controller creates get the cluster monitor too.
        if not self.elastic_enabled:
            return None
        controller = ElasticController(
            deployment, self,
            on_group_added=monitors[0].add_group if monitors else None)
        controller.start()
        return controller
