"""Canned experiment scenarios.

A scenario bundles every knob the paper's evaluation turns — number of
objects, window size, client write rate, loss probability, scheduling
mode, admission control, replication discipline — as a value.
:class:`BaseScenario` declares the knobs every topology shares and what
a run asks of a scenario (its builder, trace allow-list, monitors);
:class:`Scenario` is the one-pair topology, and :func:`build_scenario`
turns one into a ready-to-run :class:`~repro.core.service.RTPBService`
with objects registered and a sensing client attached.  The sharded
topologies live in :mod:`repro.workload.cluster` and
:mod:`repro.workload.elastic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, ClassVar, List, Optional, Tuple

from repro.baselines import discipline
from repro.core.service import RTPBService
from repro.core.spec import ObjectSpec, SchedulingMode, ServiceConfig
from repro.metrics.collectors import METRIC_TRACE_CATEGORIES
from repro.net.link import BernoulliLoss, LossModel, NoLoss
from repro.units import ms
from repro.workload.generator import homogeneous_specs

if TYPE_CHECKING:  # pragma: no cover - repro.cluster sits above workload
    from repro.cluster.service import ClusterService


def ping_misses_for_loss(loss_probability: float) -> int:
    """Miss threshold keeping heartbeat false positives negligible.

    A ping round fails when the ping *or* its ack is lost:
    ``q = 1 - (1-p)^2``.  The peer is declared dead after ``m``
    consecutive failures, so we pick ``m`` with ``q^m <= 1e-8`` — the
    paper's environment implicitly assumes the detector does not
    false-trigger during the loss sweeps.
    """
    if loss_probability <= 0:
        return 3
    round_failure = 1.0 - (1.0 - loss_probability) ** 2
    misses = math.ceil(math.log(1e-8) / math.log(round_failure))
    return max(4, int(misses))


@dataclass(frozen=True, slots=True)
class BaseScenario:
    """The knobs every topology shares, and what a run asks of a scenario.

    Frozen and slotted on purpose: scenarios are *values*.  They cross
    process boundaries when :mod:`repro.parallel` fans a sweep out to
    workers, so they must pickle round-trip exactly, hash consistently,
    and never be mutated after a sweep has derived seeds from them —
    ``dataclasses.replace`` is the way to vary one knob.

    A topology subclass names its run stages — :meth:`build`,
    :attr:`trace_categories`, :meth:`monitors`, :meth:`control_plane` —
    so :func:`repro.experiments.harness.run_scenario` runs every topology
    the same way.
    """

    n_objects: int = 8
    #: δ = δ^B - δ^P, seconds (the paper's "window size").
    window: float = ms(200.0)
    #: Client write period p_i, seconds (1/write-rate).
    client_period: float = ms(100.0)
    object_size: int = 64
    #: Message loss probability on every link (Bernoulli).
    loss_probability: float = 0.0
    admission_enabled: bool = True
    retransmission_enabled: bool = True
    #: Virtual-time horizon of the run, seconds.
    horizon: float = 20.0
    seed: int = 0
    slack_factor: float = 2.0
    ell: float = ms(5.0)
    #: Random client-write jitter half-width, seconds.
    write_jitter: float = ms(2.0)
    #: Replication discipline, a key of :data:`repro.baselines.DISCIPLINES`:
    #: ``"rtpb"`` (the paper's decoupled periodic transmission),
    #: ``"window_consistent"``, ``"eager"``, ``"eager_fastpath"``,
    #: ``"active"``, ``"semi_active"`` or ``"multi_backup"``.
    replication: str = "rtpb"
    #: Read replicas per group (0 = paper-faithful: none).
    n_replicas: int = 0
    #: Per-object read period of the reader population, seconds
    #: (0 = no readers).
    read_period: float = 0.0
    #: Read-routing policy (see :data:`repro.replicas.POLICIES`).
    read_policy: str = "round_robin"

    #: The trace categories a run of this topology retains.
    trace_categories: ClassVar[Tuple[str, ...]] = METRIC_TRACE_CATEGORIES

    def loss_model(self) -> LossModel:
        if self.loss_probability <= 0:
            return NoLoss()
        return BernoulliLoss(self.loss_probability)

    def config(self) -> ServiceConfig:
        return ServiceConfig(
            ell=self.ell,
            slack_factor=self.slack_factor,
            admission_enabled=self.admission_enabled,
            retransmission_enabled=self.retransmission_enabled,
            ping_max_misses=ping_misses_for_loss(self.loss_probability),
        )

    def specs(self) -> List[ObjectSpec]:
        """The workload's objects (``n_objects`` homogeneous specs)."""
        return homogeneous_specs(self.n_objects, window=self.window,
                                 client_period=self.client_period,
                                 size_bytes=self.object_size)

    def build(self) -> "RTPBService | ClusterService":
        """The deployment, objects registered, not yet started."""
        raise NotImplementedError

    def monitors(self, deployment: Any) -> List[Any]:
        """The online invariant monitors of a run (not yet attached): one
        :class:`~repro.faults.monitor.InvariantMonitor` over every group."""
        # Local import: repro.faults sits above repro.workload.
        from repro.faults.monitor import InvariantMonitor

        return [InvariantMonitor(deployment)]

    def control_plane(self, deployment: Any,
                      monitors: List[Any]) -> Optional[Any]:
        """Start the run's control plane, if the topology has one."""
        return None


@dataclass(frozen=True, slots=True)
class Scenario(BaseScenario):
    """Parameters for one run of a single primary/backup pair."""

    scheduling_mode: SchedulingMode = SchedulingMode.NORMAL
    n_spares: int = 0

    def config(self) -> ServiceConfig:
        return replace(BaseScenario.config(self),
                       scheduling_mode=self.scheduling_mode)

    def build(self) -> RTPBService:
        return build_scenario(self)


def build_scenario(scenario: Scenario) -> RTPBService:
    """Instantiate a service per ``scenario``: objects registered, client,
    read replicas and reader attached."""
    # Local import keeps the layering acyclic: repro.replicas imports
    # repro.core, and this module is imported by repro.core consumers.
    from repro.replicas.reader import attach_reader, check_read_tier
    from repro.replicas.server import seat_replicas

    check_read_tier(scenario.n_replicas, scenario.read_period,
                    scenario.read_policy)
    service = RTPBService(
        config=scenario.config(),
        seed=scenario.seed,
        loss_model=scenario.loss_model(),
        n_spares=scenario.n_spares,
        server_class=discipline(scenario.replication),
    )
    service.register_all(scenario.specs())
    accepted = service.registered_specs()
    if accepted:
        service.create_client(accepted, write_jitter=scenario.write_jitter)
    seat_replicas(service, scenario.n_replicas)
    if accepted and scenario.read_period > 0:
        # Without replicas every read falls back to the primary: the
        # baseline point of the replica-scaling figure.
        attach_reader(service, service.fabric, accepted,
                      scenario.read_period, scenario.read_policy)
    return service
