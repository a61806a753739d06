"""The RTPB replication service — the paper's primary contribution.

Components (mirroring Section 4):

- :mod:`~repro.core.spec` — object QoS specifications and service
  configuration.
- :mod:`~repro.core.rtpb_protocol` — the RTPB wire protocol (update, ping,
  retransmission-request, registration, recruitment and state-transfer
  messages) as an x-kernel anchor protocol over UDP.
- :mod:`~repro.core.object_store` — versioned object storage at each replica.
- :mod:`~repro.core.admission` — admission control (Section 4.2).
- :mod:`~repro.core.update_scheduler` — decoupled update transmission in
  *normal* and *compressed* modes (Section 4.3).
- :mod:`~repro.core.failure` — ping-based failure detection (Section 4.4).
- :mod:`~repro.core.server` — the replica server (primary/backup roles,
  failover, new-backup recruitment).
- :mod:`~repro.core.client` — the sensing client application.
- :mod:`~repro.core.name_service` — the name file mapping the service name
  to the current primary's address.
- :mod:`~repro.core.group` — the replication group: which live member
  holds which role, and the one fault-target grammar.
- :mod:`~repro.core.service` — the facade that wires a whole deployment
  (one group on its own hosts) into one simulator.
"""

from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.client import SensorClient
from repro.core.group import ReplicationGroup
from repro.core.name_service import NameService
from repro.core.object_store import ObjectRecord, ObjectStore
from repro.core.server import ReplicaServer, Role
from repro.core.service import RTPBService
from repro.core.spec import (
    InterObjectConstraint,
    ObjectSpec,
    SchedulingMode,
    ServiceConfig,
)

__all__ = [
    "ObjectSpec",
    "InterObjectConstraint",
    "ServiceConfig",
    "SchedulingMode",
    "ObjectStore",
    "ObjectRecord",
    "AdmissionController",
    "AdmissionDecision",
    "ReplicaServer",
    "Role",
    "SensorClient",
    "NameService",
    "ReplicationGroup",
    "RTPBService",
]
