"""Canned experiment scenarios.

A :class:`Scenario` bundles every knob the paper's evaluation turns —
number of objects, window size, client write rate, loss probability,
scheduling mode, admission control — and :func:`build_scenario` turns it
into a ready-to-run :class:`~repro.core.service.RTPBService` with objects
registered and a sensing client attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.baselines import discipline
from repro.core.service import RTPBService
from repro.core.spec import SchedulingMode, ServiceConfig
from repro.net.link import BernoulliLoss, LossModel, NoLoss
from repro.units import ms
from repro.workload.generator import homogeneous_specs


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
class Scenario:
    """Parameters for one experimental run.

    Frozen and slotted on purpose: scenarios are *values*.  They cross
    process boundaries when :mod:`repro.parallel` fans a sweep out to
    workers, so they must pickle round-trip exactly, hash consistently,
    and never be mutated after a sweep has derived seeds from them —
    ``dataclasses.replace`` is the way to vary one knob.
    """

    n_objects: int = 8
    #: δ = δ^B - δ^P, seconds (the paper's "window size").
    window: float = ms(200.0)
    #: Client write period p_i, seconds (1/write-rate).
    client_period: float = ms(100.0)
    object_size: int = 64
    #: Primary→backup message loss probability (Bernoulli).
    loss_probability: float = 0.0
    scheduling_mode: SchedulingMode = SchedulingMode.NORMAL
    admission_enabled: bool = True
    retransmission_enabled: bool = True
    #: Virtual-time horizon of the run, seconds.
    horizon: float = 20.0
    seed: int = 0
    n_spares: int = 0
    slack_factor: float = 2.0
    ell: float = ms(5.0)
    #: Random client-write jitter half-width, seconds.
    write_jitter: float = ms(2.0)
    #: Replication discipline, a key of :data:`repro.baselines.DISCIPLINES`:
    #: ``"rtpb"`` (the paper's decoupled periodic transmission),
    #: ``"window_consistent"``, ``"eager"``, ``"eager_fastpath"``,
    #: ``"active"`` or ``"semi_active"``.
    replication: str = "rtpb"
    #: Read replicas attached to the deployment (0 = paper-faithful: none).
    n_replicas: int = 0
    #: Per-object read period of the reader population, seconds
    #: (0 = no readers).
    read_period: float = 0.0
    #: Read-routing policy (see :data:`repro.replicas.POLICIES`).
    read_policy: str = "round_robin"

    def loss_model(self) -> LossModel:
        if self.loss_probability <= 0:
            return NoLoss()
        return BernoulliLoss(self.loss_probability)

    def config(self) -> ServiceConfig:
        return ServiceConfig(
            ell=self.ell,
            scheduling_mode=self.scheduling_mode,
            slack_factor=self.slack_factor,
            admission_enabled=self.admission_enabled,
            retransmission_enabled=self.retransmission_enabled,
            ping_max_misses=ping_misses_for_loss(self.loss_probability),
        )


def build_scenario(scenario: Scenario) -> RTPBService:
    """Instantiate a service per ``scenario``: objects registered, client attached."""
    service = RTPBService(
        config=scenario.config(),
        seed=scenario.seed,
        loss_model=scenario.loss_model(),
        n_spares=scenario.n_spares,
        server_class=discipline(scenario.replication),
    )
    specs = homogeneous_specs(
        scenario.n_objects,
        window=scenario.window,
        client_period=scenario.client_period,
        size_bytes=scenario.object_size,
    )
    service.register_all(specs)
    accepted = service.registered_specs()
    if accepted:
        service.create_client(accepted, write_jitter=scenario.write_jitter)
    if scenario.n_replicas > 0:
        # Local import keeps the layering acyclic: repro.replicas imports
        # repro.core, and this module is imported by repro.core consumers.
        from repro.replicas.single import ReplicaExtension

        extension = ReplicaExtension(service, scenario.n_replicas,
                                     policy=scenario.read_policy)
        if accepted and scenario.read_period > 0:
            extension.create_reader(accepted,
                                    read_period=scenario.read_period)
    elif accepted and scenario.read_period > 0:
        # Readers without replicas: every read falls back to the primary —
        # the baseline point of the replica-scaling figure.
        from repro.replicas.reader import ReaderClient
        from repro.replicas.router import ReadRouter

        router = ReadRouter(
            service.sim, service.name_service, service.service_name,
            resolver=lambda _address: None, config=service.config,
            policy=scenario.read_policy, fabric=service.fabric)
        reader = ReaderClient(
            service.sim, service.name_service, service.service_name,
            router=router, resolver=service.resolve_server, specs=accepted,
            read_period=scenario.read_period)
        service.extensions.append(reader)
    return service
