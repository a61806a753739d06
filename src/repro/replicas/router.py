"""Client-side read routing with pluggable policies.

The router answers one question per read: *which replica, if any, can
provably honour the staleness bound right now?*  Candidates come from the
name file's role-tagged entries (``shard → [replica addresses]``), listed,
de-duplicated by address and resolved once per name-file change; each is
kept only if the liveness probe passes it, it is alive and its
**advertised** staleness for the object — plus a configurable headroom
absorbing advertisement lag and read queueing — fits within the object's
δ^B, all three asked anew on every read.  Because the advertisement is a
past snapshot of the applied state, the filter only over-estimates
staleness; a routed read can still age past the bound while queueing on
the replica's CPU, which is why :meth:`ReadReplica.serve_read` re-checks
at completion time and the reader falls back to the primary on rejection.

Policies (over the qualifying candidates):

``round_robin``
    Rotate through the candidates in address order.
``freshest``
    Lowest advertised staleness for the object (timestamp-stability
    routing); ties break to the lowest address.
``least_loaded``
    Fewest reads currently queued or in service; ties to lowest address.
``nearest``
    Smallest mean link delay from the router's locality (the current
    primary's address unless configured), using the fabric's per-pair
    distances; ties to lowest address.

Every policy is a deterministic function of simulator state, so sweeps
stay byte-identical across worker counts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.name_service import NameService
from repro.core.spec import ObjectSpec, ServiceConfig
from repro.errors import ReplicationError
from repro.net.link import NetworkFabric
from repro.replicas.server import ReadReplica
from repro.sim.engine import Simulator

#: Resolves a fabric address to the replica object living there.
ReplicaResolver = Callable[[int], Optional[ReadReplica]]

#: Routing policies a :class:`ReadRouter` accepts.
POLICIES = ("round_robin", "freshest", "least_loaded", "nearest")

#: Role-name prefix under which read replicas publish themselves.
REPLICA_ROLE_PREFIX = "replica"


class ReadRouter:
    """Routes reads to window-qualified replicas; None means fall back."""

    def __init__(self, sim: Simulator, name_service: NameService,
                 service_name: str, resolver: ReplicaResolver,
                 config: ServiceConfig,
                 policy: str = "round_robin",
                 fabric: Optional[NetworkFabric] = None,
                 locality: Optional[int] = None) -> None:
        if policy not in POLICIES:
            raise ReplicationError(
                f"unknown routing policy {policy!r}; known: {POLICIES}")
        self.sim = sim
        self.name_service = name_service
        self.service_name = service_name
        self.resolver = resolver
        self.config = config
        self.policy = policy
        self.fabric = fabric
        #: Router vantage point for ``nearest``; defaults to wherever the
        #: name file says the primary is (readers are primary-resident in
        #: the paper's deployment model).
        self.locality = locality
        self.routed = 0
        self.unroutable = 0
        self._rr_counter = 0
        #: (address, role names, replica) by address, at _listed_at changes.
        self._listing: List[Tuple[int, Tuple[str, ...],
                                  Optional[ReadReplica]]] = []
        self._listed_at = -1

    # ------------------------------------------------------------------

    def candidates(self, spec: ObjectSpec) -> List[Tuple[int, ReadReplica]]:
        """Live, window-qualified ``(address, replica)`` pairs, by address."""
        names = self.name_service
        if len(names.changes) != self._listed_at:
            composites: Dict[int, List[str]] = {}
            for _role, composite, address in names.role_entries(
                    self.service_name, prefix=REPLICA_ROLE_PREFIX):
                composites.setdefault(address, []).append(composite)
            self._listing = [(address, tuple(roles), self.resolver(address))
                             for address, roles in sorted(composites.items())]
            self._listed_at = len(names.changes)
        probe = names.liveness_probe
        now = self.sim.now
        headroom = self.config.read_headroom
        qualified: List[Tuple[int, ReadReplica]] = []
        for address, roles, replica in self._listing:
            if replica is None or not replica.alive or (
                    probe is not None
                    and not any(probe(role, address) for role in roles)):
                continue
            advertised = replica.advertised_staleness(spec.object_id, now)
            if advertised + headroom > spec.delta_backup:
                continue
            qualified.append((address, replica))
        return qualified

    def route(self, spec: ObjectSpec) -> Optional[ReadReplica]:
        """Pick a replica for one read, or None when none qualifies."""
        qualified = self.candidates(spec)
        if not qualified:
            self.unroutable += 1
            return None
        self.routed += 1
        if self.policy == "round_robin":
            choice = qualified[self._rr_counter % len(qualified)]
            self._rr_counter += 1
            return choice[1]
        if self.policy == "freshest":
            now = self.sim.now
            return min(qualified, key=lambda pair: (
                pair[1].advertised_staleness(spec.object_id, now),
                pair[0]))[1]
        if self.policy == "least_loaded":
            return min(qualified,
                       key=lambda pair: (pair[1].reads_inflight, pair[0]))[1]
        # nearest
        origin = self.locality
        if origin is None:
            origin = self.name_service.peek(self.service_name)
        if origin is None or self.fabric is None:
            return qualified[0][1]
        fabric = self.fabric
        return min(qualified, key=lambda pair: (
            fabric.link_distance(origin, pair[0]), pair[0]))[1]
