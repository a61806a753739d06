"""Exception hierarchy for the RTPB reproduction.

All library exceptions derive from :class:`ReproError` so callers can catch
everything raised by this package with a single ``except`` clause.  Subsystem
errors derive from intermediate bases (``SimulationError``, ``SchedulingError``,
``ProtocolError``, ``ReplicationError``) mirroring the package layout.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Simulation kernel (repro.sim)
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event-simulation errors."""


class SimTimeError(SimulationError):
    """An event was scheduled in the past or with a negative delay."""


class SimStoppedError(SimulationError):
    """An operation required a running simulator, but it had stopped."""


class ProcessInterrupt(SimulationError):
    """Raised *inside* a simulated process when another process interrupts it.

    The interrupting process may attach an arbitrary ``cause`` explaining why.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(f"process interrupted (cause={cause!r})")
        self.cause = cause


# ---------------------------------------------------------------------------
# Scheduling substrate (repro.sched)
# ---------------------------------------------------------------------------


class SchedulingError(ReproError):
    """Base class for real-time scheduling errors."""


class InvalidTaskError(SchedulingError):
    """A task was constructed with inconsistent parameters."""


class NotSchedulableError(SchedulingError):
    """A task set failed a schedulability test it was required to pass."""


class DeadlineMissError(SchedulingError):
    """A job missed its deadline under a scheduler configured as *hard*."""

    def __init__(self, message: str, task_name: str = "", job_index: int = -1,
                 deadline: float = float("nan"),
                 finish_time: float = float("nan")) -> None:
        super().__init__(message)
        self.task_name = task_name
        self.job_index = job_index
        self.deadline = deadline
        self.finish_time = finish_time


# ---------------------------------------------------------------------------
# Protocol framework (repro.xkernel, repro.net)
# ---------------------------------------------------------------------------


class ProtocolError(ReproError):
    """Base class for x-kernel protocol framework errors."""


class MessageFormatError(ProtocolError):
    """A message header could not be popped (truncated or wrong type)."""


class NoRouteError(ProtocolError):
    """No host or session matched the destination address."""


class PortInUseError(ProtocolError):
    """A UDP port was bound twice on the same host."""


# ---------------------------------------------------------------------------
# Replication service (repro.core)
# ---------------------------------------------------------------------------


class ReplicationError(ReproError):
    """Base class for RTPB replication-service errors."""


class UnknownObjectError(ReplicationError):
    """An operation referenced an object id that is not registered."""


class NotPrimaryError(ReplicationError):
    """A client write reached a server that is not (or no longer) primary."""


class ClusterError(ReplicationError):
    """Misconfiguration or unsupported feature of a sharded cluster."""
