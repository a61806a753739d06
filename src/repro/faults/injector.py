"""The chaos orchestrator: binds a :class:`FaultSchedule` to a deployment.

:class:`FaultInjector` schedules every fault on the deployment's simulator
(virtual time — the whole chaos run stays deterministic), resolves dynamic
targets at fire time, traces each applied fault (``fault_injected``), and
keeps a JSON-safe log of what actually fired for the chaos report.

Trace categories: ``fault_injected``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.core.group import Target, resolve_target
from repro.core.server import ReplicaServer
from repro.core.service import RTPBService
from repro.errors import ProtocolError
from repro.faults.schedule import FaultSchedule, TimedFault

if TYPE_CHECKING:  # pragma: no cover - repro.cluster sits above faults
    from repro.cluster.service import ClusterService
    from repro.replicas.server import ReadReplica


class FaultInjector:
    """Applies a fault schedule to one deployment: a pair
    (:class:`RTPBService`, any discipline) or a sharded
    :class:`~repro.cluster.service.ClusterService` — each exposes its
    ``sim``, ``fabric``, ``groups`` and ``kill_host``.
    """

    def __init__(self, service: "RTPBService | ClusterService",
                 schedule: Optional[FaultSchedule] = None) -> None:
        self.service = service
        self.sim = service.sim
        self.fabric = service.fabric
        self.schedule = schedule if schedule is not None else FaultSchedule()
        #: JSON-safe log of every fault actually applied, in firing order.
        self.applied: List[Dict[str, Any]] = []
        self._armed = False

    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every fault on the simulator (idempotent)."""
        if self._armed:
            return
        self._armed = True
        for entry in self.schedule.entries:
            if entry.time < self.sim.now:
                raise ProtocolError(
                    f"fault at {entry.time} is in the past "
                    f"(now={self.sim.now})")
            self.sim.schedule_at(entry.time, self._fire, entry)

    def inject_now(self, action) -> None:
        """Apply one action immediately, outside any schedule."""
        self._fire(TimedFault(self.sim.now, action))

    def _fire(self, entry: TimedFault) -> None:
        entry.action.apply(self)
        event = {"time": self.sim.now, "kind": entry.action.kind,
                 **entry.action.describe()}
        self.applied.append(event)
        self.sim.trace.record("fault_injected", **event)

    # ------------------------------------------------------------------
    # Services to actions
    # ------------------------------------------------------------------

    def resolve_server(self, target: Target
                       ) -> "ReplicaServer | ReadReplica | None":
        """The server a target names right now, or None if nothing matches
        (see :func:`~repro.core.group.resolve_target` for the grammar).

        Role selectors resolve at fire time, so ``"primary"`` hits whoever
        holds the role when the fault fires; one that names nobody (e.g.
        ``"backup"`` while the spare is still being recruited) makes the
        fault a deterministic no-op.
        """
        return resolve_target(self.service.groups, target)

    def resolve_address(self, target: Target) -> int:
        """A target's fabric address; raises if nothing matches."""
        server = self.resolve_server(target)
        if server is None:
            raise ProtocolError(f"no server matches fault target {target!r}")
        return server.host.address

    def schedule_restore(self, delay: float, restore: Callable[..., Any],
                         *args: Any) -> None:
        """Schedule the revert half of a transient fault."""
        self.sim.schedule(delay, restore, *args)
