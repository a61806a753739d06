"""Object QoS specifications and service configuration.

An :class:`ObjectSpec` is what a client presents at registration
(Section 4.2): the update period it promises, the external consistency it
needs at the primary and at the backup, and the object's size.  The
:class:`ServiceConfig` collects the deployment-wide parameters: the link
delay bound ℓ, CPU cost models, scheduling mode, failure-detection timing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReplicationError
from repro.units import ms


class SchedulingMode(enum.Enum):
    """How update transmissions to the backup are scheduled (Section 4.3)."""

    #: Periodic task per object with period ``(δ_i - ℓ) / slack_factor``.
    NORMAL = "normal"
    #: "Primary schedules as many updates to backup as the resources allow"
    #: — idle CPU capacity is filled with round-robin transmissions.
    COMPRESSED = "compressed"
    #: The paper's "optimization of scheduling update messages" future-work
    #: item: transmission tasks laid out by the distance-constrained
    #: scheduler ``Sr`` (Theorem 3), giving (near-)zero phase variance on
    #: the update stream at the cost of specialised (≤ granted) periods.
    DCS = "dcs"


@dataclass(frozen=True)
class ObjectSpec:
    """A client's registration request for one object.

    Parameters
    ----------
    object_id:
        Unique id within the service.
    name:
        Human-readable label (diagnostics only).
    size_bytes:
        Payload size; drives transmission and apply costs.
    client_period:
        ``p_i`` — how often the client promises to write, seconds.
    delta_primary:
        ``δ_i^P`` — external consistency constraint at the primary.
    delta_backup:
        ``δ_i^B`` — external consistency constraint at the backup.
    """

    object_id: int
    name: str
    size_bytes: int
    client_period: float
    delta_primary: float
    delta_backup: float

    def __post_init__(self) -> None:
        if self.object_id < 0:
            raise ReplicationError(f"object_id must be >= 0: {self.object_id}")
        if self.size_bytes <= 0:
            raise ReplicationError(f"size_bytes must be > 0: {self.size_bytes}")
        for name in ("client_period", "delta_primary", "delta_backup"):
            if getattr(self, name) <= 0:
                raise ReplicationError(
                    f"{name} must be > 0: {getattr(self, name)}")

    @property
    def window(self) -> float:
        """``δ_i = δ_i^B - δ_i^P`` — the primary/backup consistency window."""
        return self.delta_backup - self.delta_primary


@dataclass(frozen=True)
class InterObjectConstraint:
    """``|T_i(t) - T_j(t)| ≤ δ_ij`` between two registered objects."""

    object_i: int
    object_j: int
    delta: float

    def __post_init__(self) -> None:
        if self.object_i == self.object_j:
            raise ReplicationError(
                f"inter-object constraint needs two objects, got "
                f"{self.object_i} twice")
        if self.delta <= 0:
            raise ReplicationError(f"delta must be > 0: {self.delta}")

    def involves(self, object_id: int) -> bool:
        return object_id in (self.object_i, self.object_j)


@dataclass
class ServiceConfig:
    """Deployment-wide parameters for an RTPB service instance."""

    # -- network assumptions (Section 4.1) -----------------------------
    #: ℓ — guaranteed upper bound on one-way primary→backup delay.
    ell: float = ms(5.0)
    #: Lower edge of the uniform delay distribution.
    link_delay_min: Optional[float] = None

    # -- update transmission (Section 4.3) ------------------------------
    scheduling_mode: SchedulingMode = SchedulingMode.NORMAL
    #: The paper sets the transmission period to ``(δ_i - ℓ)/2`` "to
    #: compensate for potential message loss"; slack_factor is that 2.
    slack_factor: float = 2.0
    #: Backup-initiated retransmission: the backup requests a resend when it
    #: has heard nothing for ``watchdog_factor ×`` the expected interval.
    retransmission_enabled: bool = True
    watchdog_factor: float = 2.5
    #: Per-update acknowledgments from the backup.  The paper argues against
    #: them (Section 4.3); off by default, on for the ack ablation.  The
    #: synchronous disciplines declare their need for acks on the server
    #: class (``ReplicaServer.ack_updates``) and never touch this field.
    ack_updates: bool = False

    # -- admission control (Section 4.2) --------------------------------
    admission_enabled: bool = True
    #: "utilization" = Liu-Layland bound (the paper's test);
    #: "exact" = response-time analysis.
    admission_test: str = "utilization"

    # -- CPU scheduling policy -------------------------------------------
    #: Run-time scheduler on each server's CPU: "edf" (default) or "rm".
    #: Admission always tests with the paper's RM-based analysis; the
    #: runtime policy is independent (the paper's MK 7.2 kernel was
    #: fixed-priority; EDF is the modern default and an ablation axis).
    cpu_scheduler: str = "edf"

    # -- CPU cost models -------------------------------------------------
    #: Cost of handling one client write RPC on the primary (Mach IPC +
    #: local store update).
    rpc_cost: float = ms(0.3)
    #: Cost of handling one client read RPC (no store mutation).
    rpc_read_cost: float = ms(0.2)
    #: Relative deadline given to client-write jobs under EDF.
    rpc_deadline: float = ms(100.0)
    #: Allow the backup to answer read RPCs.  Reads served there are stale
    #: by at most δ_i^B (the object's own registered bound), which is
    #: exactly the temporal-consistency contract — so backup reads are a
    #: sound load-sharing lever, off by default to match the paper.
    backup_reads_enabled: bool = False
    #: Serve client RPCs through a deferrable server (a periodic
    #: ``ds_budget``/``ds_period`` reservation at real-time priority)
    #: instead of the plain real-time band.  The reservation is charged to
    #: the admission controller's task set like any periodic task.
    use_deferrable_server: bool = False
    ds_budget: float = ms(5.0)
    ds_period: float = ms(50.0)
    #: Fixed + per-byte cost of transmitting one update to the backup.
    tx_cost_base: float = ms(0.8)
    tx_cost_per_byte: float = 1e-8
    #: Fixed + per-byte cost of applying one update at the backup.
    apply_cost_base: float = ms(0.4)
    apply_cost_per_byte: float = 1e-8

    # -- failure detection (Section 4.4) ---------------------------------
    ping_period: float = ms(100.0)
    ping_timeout: float = ms(30.0)
    ping_max_misses: int = 3
    failover_enabled: bool = True

    # -- registration ------------------------------------------------------
    registration_retry_period: float = ms(50.0)
    registration_max_retries: int = 10

    # -- read replicas (repro.replicas extension) -------------------------
    #: How often a replica beacons its applied high-water timestamp (and
    #: refreshes the freshness snapshot the router inspects).
    replica_beacon_period: float = ms(100.0)
    #: How often a replica re-resolves the name file and (re)subscribes to
    #: the current primary — bounds read-path recovery after a failover.
    replica_resubscribe_period: float = ms(500.0)
    #: Primary drops a subscriber heard nothing from for this long.
    replica_subscriber_timeout: float = 2.0
    #: Router headroom added to a replica's advertised staleness before
    #: testing it against δ_i^B — absorbs advertisement lag (one beacon
    #: period) plus read queueing at the replica.
    read_headroom: float = ms(10.0)

    def __post_init__(self) -> None:
        if self.ell <= 0:
            raise ReplicationError(f"ell must be > 0: {self.ell}")
        if self.slack_factor < 1.0:
            raise ReplicationError(
                f"slack_factor must be >= 1: {self.slack_factor}")
        if self.admission_test not in ("utilization", "exact"):
            raise ReplicationError(
                f"admission_test must be 'utilization' or 'exact': "
                f"{self.admission_test!r}")
        if self.cpu_scheduler not in ("edf", "rm"):
            raise ReplicationError(
                f"cpu_scheduler must be 'edf' or 'rm': "
                f"{self.cpu_scheduler!r}")
        if self.use_deferrable_server and not (
                0 < self.ds_budget <= self.ds_period):
            raise ReplicationError(
                f"deferrable server needs 0 < budget <= period, got "
                f"budget={self.ds_budget}, period={self.ds_period}")
        if isinstance(self.scheduling_mode, str):
            self.scheduling_mode = SchedulingMode(self.scheduling_mode)
        if self.ping_max_misses < 1:
            raise ReplicationError(
                f"ping_max_misses must be >= 1: {self.ping_max_misses}")

    # -- derived quantities ----------------------------------------------

    def tx_cost(self, size_bytes: int) -> float:
        """CPU cost of one update transmission for an object of this size."""
        return self.tx_cost_base + self.tx_cost_per_byte * size_bytes

    def apply_cost(self, size_bytes: int) -> float:
        """CPU cost of applying one update at the backup."""
        return self.apply_cost_base + self.apply_cost_per_byte * size_bytes

    def update_period(self, spec: ObjectSpec) -> float:
        """Transmission period for ``spec``: ``(δ_i - ℓ) / slack_factor``.

        Callers must have checked ``spec.window > ell`` (admission does);
        a non-positive result raises.
        """
        period = (spec.window - self.ell) / self.slack_factor
        if period <= 0:
            raise ReplicationError(
                f"object {spec.object_id}: window {spec.window} does not "
                f"exceed the delay bound {self.ell}")
        return period

    def failure_detection_latency(self) -> float:
        """Worst-case time from a crash to the survivor declaring it dead."""
        return self.ping_period + self.ping_max_misses * self.ping_timeout
