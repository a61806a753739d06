"""Metrics-driven autoscaling: a hysteresis controller over the collectors.

The :class:`Autoscaler` periodically samples three signals:

- **planned utilization** — each live, non-draining host's admission-
  controller utilization (:meth:`PlacementEngine.utilization`): the RM
  admission test's view of how full the cluster's budgets are.  This is a
  *provisioning* signal — it moves when objects register, degrade, or
  migrate, not when clients write faster.
- **response-time percentiles** — the p99 of ``client_response`` records
  since the previous sample, taken straight off the trace stream.  This
  is the *load* signal: a flash crowd that planned utilization cannot see
  shows up here first.
- **window-violation count** — ``invariant_violation`` records since the
  previous sample; any violation is unconditional pressure.

Samples cross the high watermark (or the latency red line, or a non-zero
violation count) into a *pressure streak*; crossing the low watermark
with none of the above feeds an *idle streak*.  Only a full streak
(``high_samples`` / ``low_samples`` consecutive ticks) outside the
cooldown triggers an action — the hysteresis that keeps a borderline
cluster from flapping.  Actions are traced (``autoscale``) and delegated
to callbacks; the :class:`~repro.elastic.controller.ElasticController`
implements them as host recruitment plus group growth (with live
migrations populating the new shard) or group retirement.

Trace categories: ``autoscale``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List

from repro.sim.trace import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.service import ClusterService
    from repro.workload.elastic import ElasticScenario

#: Response samples retained per tick window (overload backstop; one tick
#: at a plausible write rate stays far below this).
_MAX_SAMPLES = 65536


def peak_utilization(cluster: "ClusterService") -> float:
    """Highest planned utilization over live, non-draining hosts."""
    return max((slot.admission.planned_utilization()
                for slot in cluster.slots.values()
                if slot.alive and not slot.draining), default=0.0)


def _p99(samples: List[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


class Autoscaler:
    """Hysteresis loop: collector stream in, scale-out/in callbacks out.

    The hysteresis knobs are the ``scenario``'s autoscaler fields.
    """

    def __init__(self, cluster: "ClusterService",
                 scenario: "ElasticScenario",
                 scale_out: Callable[[str], None],
                 scale_in: Callable[[str], None]) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.scenario = scenario
        self.scale_out = scale_out
        self.scale_in = scale_in
        #: JSON-safe log of every action taken, in firing order.
        self.actions: List[Dict[str, Any]] = []
        self._responses: List[float] = []
        self._violations = 0
        self._pressure_streak = 0
        self._idle_streak = 0
        self._last_action_at: float = float("-inf")
        self._running = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.trace.subscribe(self._on_record)
        self.sim.schedule(self.scenario.autoscale_period, self._tick)

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self.sim.trace.unsubscribe(self._on_record)

    # ------------------------------------------------------------------

    def _on_record(self, record: TraceRecord) -> None:
        if record.category == "client_response":
            if len(self._responses) < _MAX_SAMPLES:
                self._responses.append(record["response"])
        elif record.category == "invariant_violation":
            self._violations += 1

    def _tick(self) -> None:
        if not self._running:
            return
        scenario = self.scenario
        peak = peak_utilization(self.cluster)
        p99 = _p99(self._responses)
        violations = self._violations
        self._responses.clear()
        self._violations = 0

        reasons: List[str] = []
        if peak > scenario.high_watermark:
            reasons.append("utilization")
        if scenario.latency_red > 0 and p99 > scenario.latency_red:
            reasons.append("latency")
        if violations > 0:
            reasons.append("violations")
        if reasons:
            self._pressure_streak += 1
            self._idle_streak = 0
        elif peak < scenario.low_watermark:
            self._idle_streak += 1
            self._pressure_streak = 0
        else:
            self._pressure_streak = 0
            self._idle_streak = 0

        cooled = (self.sim.now - self._last_action_at
                  >= scenario.autoscale_cooldown)
        if self._pressure_streak >= scenario.high_samples and cooled:
            self._act("scale_out", ",".join(reasons), peak, p99)
        elif self._idle_streak >= scenario.low_samples and cooled:
            self._act("scale_in", "idle", peak, p99)
        self.sim.schedule(scenario.autoscale_period, self._tick)

    def _act(self, action: str, reason: str, peak: float,
             p99: float) -> None:
        self._last_action_at = self.sim.now
        self._pressure_streak = 0
        self._idle_streak = 0
        event: Dict[str, Any] = {
            "time": self.sim.now, "action": action, "reason": reason,
            "peak_utilization": peak, "p99_response": p99}
        self.actions.append(event)
        self.sim.trace.record("autoscale", action=action, reason=reason,
                              peak_utilization=peak, p99_response=p99)
        if action == "scale_out":
            self.scale_out(reason)
        else:
            self.scale_in(reason)
