"""The fault vocabulary: one class per injectable fault.

Each :class:`FaultAction` is a small declarative object — what to break,
and for transient faults how long to keep it broken — applied at its
scheduled virtual time by the :class:`~repro.faults.injector.FaultInjector`.
Actions resolve their targets *at fire time* ("primary" means whoever holds
the role when the fault hits, not when the schedule was written), which is
what makes schedules composable with failovers.  A target is a
:data:`~repro.core.group.Target`: ``[<group>/]<selector>``, a fabric
address, a host name or a server name.

All actions are plain dataclasses with deterministic ``describe()`` output,
so a schedule serialises into the chaos report byte-identically run after
run.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.core.group import Target
from repro.errors import ProtocolError
from repro.net.link import LossModel


class FaultAction:
    """Base class: a named, appliable fault (every subclass a dataclass)."""

    #: Machine-readable fault kind, stable across releases (report schema).
    kind: str = "fault"

    def apply(self, injector: "FaultInjector") -> None:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """JSON-safe parameters for the chaos report (no live objects):
        the action's dataclass fields, unless a subclass says otherwise."""
        return {field.name: getattr(self, field.name)
                for field in fields(self)}


@dataclass
class CrashServer(FaultAction):
    """Fail-stop the targeted server (Section 4.1's crash failure)."""

    target: Target

    kind = "crash"

    def apply(self, injector: "FaultInjector") -> None:
        server = injector.resolve_server(self.target)
        if server is not None:
            server.crash()


@dataclass
class RecoverServer(FaultAction):
    """Reboot a crashed server; it rejoins as a spare and its group's
    current primary is told about it (restarting recruitment if it lacks
    a backup)."""

    target: Target

    kind = "recover"

    def apply(self, injector: "FaultInjector") -> None:
        server = injector.resolve_server(self.target)
        if server is None or server.alive:
            return
        server.recover()
        for group in injector.service.groups:
            if server in group.members:  # only its own group hears of it
                group.announce_recovered(server)


@dataclass
class KillHost(FaultAction):
    """Take a whole simulated machine down: the target's host.

    On a sharded cluster every replica server co-located on the host
    crashes and the host's NIC and admission budget die with it — the
    trigger for cluster re-placement.  On a pair, where one server owns
    the whole host, this is :class:`CrashServer`.
    """

    target: Target

    kind = "kill_host"

    def apply(self, injector: "FaultInjector") -> None:
        server = injector.resolve_server(self.target)
        if server is not None:
            injector.service.kill_host(server.host.address)


@dataclass
class IsolateHost(FaultAction):
    """Cut one host off from every other attached host for ``duration``.

    A single-victim partition: the rest of the fabric keeps talking, the
    victim hears nobody — the classic trigger for a split brain when the
    victim is a backup (it promotes) or a primary (it keeps serving a
    stale shard).  The heal releases every partition pair involving the
    victim, including pairs an overlapping fault partitioned independently
    (documented composition limitation of :meth:`NetworkFabric.set_isolated`).
    """

    duration: float
    target: Target

    kind = "isolate"

    def apply(self, injector: "FaultInjector") -> None:
        if self.duration <= 0:
            raise ProtocolError(
                f"isolation duration must be > 0: {self.duration}")
        address = injector.resolve_address(self.target)
        injector.fabric.set_isolated(address, True)
        injector.schedule_restore(self.duration,
                                  injector.fabric.set_isolated, address,
                                  False)


@dataclass
class Partition(FaultAction):
    """Cut the fabric between two hosts, both directions."""

    a: Target
    b: Target

    kind = "partition"

    def apply(self, injector: "FaultInjector") -> None:
        injector.fabric.set_partition(injector.resolve_address(self.a),
                                      injector.resolve_address(self.b), True)


@dataclass
class Heal(FaultAction):
    """Undo a :class:`Partition` between two hosts."""

    a: Target
    b: Target

    kind = "heal"

    def apply(self, injector: "FaultInjector") -> None:
        injector.fabric.set_partition(injector.resolve_address(self.a),
                                      injector.resolve_address(self.b), False)


@dataclass
class PartitionAll(FaultAction):
    """Total network outage: every attached pair partitioned."""

    kind = "partition_all"

    def apply(self, injector: "FaultInjector") -> None:
        injector.fabric.partition_all()


@dataclass
class HealAll(FaultAction):
    """Clear every partition on the fabric."""

    kind = "heal_all"

    def apply(self, injector: "FaultInjector") -> None:
        injector.fabric.heal_all()


@dataclass
class LossBurst(FaultAction):
    """Swap the fabric's loss model for ``duration`` seconds.

    Models a congestion episode: the paper observes "most of the message
    losses occur when the network is overloaded".  The previous loss model
    is restored when the burst ends.  Each application installs its own
    copy of ``loss_model``: a stateful model (Gilbert-Elliott keeps its
    channel state) then starts every run from the state the schedule was
    written with, so one schedule object replays identically any number of
    times.
    """

    duration: float
    loss_model: LossModel

    kind = "loss_burst"

    def apply(self, injector: "FaultInjector") -> None:
        if self.duration <= 0:
            raise ProtocolError(f"burst duration must be > 0: {self.duration}")
        fabric = injector.fabric
        previous = fabric.loss_model
        fabric.set_loss_model(copy.deepcopy(self.loss_model))
        injector.schedule_restore(self.duration, fabric.set_loss_model,
                                  previous)

    def describe(self) -> Dict[str, object]:
        return {"duration": self.duration,
                "loss_model": self.loss_model.describe()}


@dataclass
class DelaySpike(FaultAction):
    """Multiply the fabric's delay window by ``factor`` for ``duration``.

    The delay bound ℓ is an *assumption* of the paper (Section 4.1); a
    spike with ``factor > 1`` deliberately violates it so the invariant
    monitor can observe what breaks.
    """

    duration: float
    factor: float

    kind = "delay_spike"

    def apply(self, injector: "FaultInjector") -> None:
        if self.duration <= 0 or self.factor <= 0:
            raise ProtocolError(
                f"delay spike needs positive duration and factor, got "
                f"duration={self.duration}, factor={self.factor}")
        fabric = injector.fabric
        previous = (fabric.delay_min, fabric.delay_bound)
        fabric.delay_min *= self.factor
        fabric.delay_bound *= self.factor

        def restore() -> None:
            fabric.delay_min, fabric.delay_bound = previous

        injector.schedule_restore(self.duration, restore)


@dataclass
class DuplicateMessages(FaultAction):
    """Deliver messages twice with ``probability`` for ``duration`` seconds."""

    duration: float
    probability: float

    kind = "duplicate"

    def apply(self, injector: "FaultInjector") -> None:
        fabric = injector.fabric
        previous = fabric.duplicate_probability
        fabric.set_duplication(self.probability)
        injector.schedule_restore(self.duration, fabric.set_duplication,
                                  previous)


@dataclass
class CorruptMessages(FaultAction):
    """Bit-corrupt messages in flight with ``probability`` for ``duration``."""

    duration: float
    probability: float

    kind = "corrupt"

    def apply(self, injector: "FaultInjector") -> None:
        fabric = injector.fabric
        previous = fabric.corrupt_probability
        fabric.set_corruption(self.probability)
        injector.schedule_restore(self.duration, fabric.set_corruption,
                                  previous)


@dataclass
class FlashCrowd(FaultAction):
    """Multiply every sensing client's write rate by ``factor``.

    Models a sudden burst of sensor activity: for ``duration`` seconds
    each client issues writes ``factor`` times as often (inter-write gaps
    divide by the factor), then the rate snaps back.  Planned utilization
    — an *admission-time* quantity — cannot see this; only the response-
    time stream and the invariant monitors can, which is exactly the
    blind spot the elastic autoscaler's latency trigger covers.
    """

    duration: float
    factor: float

    kind = "flash_crowd"

    def apply(self, injector: "FaultInjector") -> None:
        if self.duration <= 0 or self.factor <= 0:
            raise ProtocolError(
                f"flash crowd needs positive duration and factor, got "
                f"duration={self.duration}, factor={self.factor}")
        clients = list(injector.service.clients)

        def restore() -> None:
            for client in clients:
                client.rate_scale = 1.0

        for client in clients:
            client.rate_scale = self.factor
        injector.schedule_restore(self.duration, restore)


@dataclass
class DrainHost(FaultAction):
    """Mark a host draining: alive, serving, but evacuating.

    The rolling-decommission primitive — placement stops offering the
    host and the elastic controller walks its resident seats off, one per
    tick, with clean failovers.  Only meaningful on deployments exposing
    ``mark_draining`` (the sharded cluster); a no-op elsewhere.
    """

    target: Target

    kind = "drain_host"

    def apply(self, injector: "FaultInjector") -> None:
        drain = getattr(injector.service, "mark_draining", None)
        if drain is None:
            return
        if isinstance(self.target, int):
            # A fabric address names the host itself — hosts with no
            # resident server (spare capacity) are drainable too.
            drain(self.target)
            return
        server = injector.resolve_server(self.target)
        if server is not None:
            drain(server.host.address)


@dataclass
class ClockDrift(FaultAction):
    """Skew the targeted replica's local timers by ``scale``.

    ``scale > 1`` is a slow clock, ``scale < 1`` a fast one; with a
    ``duration`` the clock snaps back to perfect afterwards, otherwise the
    drift persists for the rest of the run.
    """

    target: Target
    scale: float
    duration: Optional[float] = None

    kind = "clock_drift"

    def apply(self, injector: "FaultInjector") -> None:
        server = injector.resolve_server(self.target)
        if server is None:
            return
        server.set_clock_scale(self.scale)
        if self.duration is not None:
            injector.schedule_restore(self.duration, server.set_clock_scale,
                                      1.0)

    def describe(self) -> Dict[str, object]:
        summary: Dict[str, object] = {"target": self.target,
                                      "scale": self.scale}
        if self.duration is not None:
            summary["duration"] = self.duration
        return summary
