"""The reading client population.

Production traffic is reads ≫ writes; :class:`ReaderClient` is the
read-side sibling of :class:`~repro.core.client.SensorClient`: one
periodic loop per object (independently random phases), each read first
asking the :class:`~repro.replicas.router.ReadRouter` for a
window-qualified replica and falling back to the primary when none
qualifies — or when the routed replica refuses late (its staleness grew
past δ^B while the read queued).

The loop is **closed** per object: at most one read outstanding, the next
issued only after the reply (a poller waits for its answer).  Under
saturation the issue rate therefore self-throttles to the serving tier's
capacity — measured read throughput *is* capacity, which is what the
replica-scaling figure plots — and the simulation never accumulates an
unbounded job backlog.  A lease (:data:`LEASE_PERIODS` read periods)
bounds the wait on a reply that will never come (e.g. the primary died
with the fallback read still queued): when it expires the loop resumes
issuing.

:func:`attach_reader` adds a population to a replication group's read
tier on either topology, once :func:`check_read_tier` passed its knobs.

Trace categories: ``read_fallback`` (a read the replica tier could not
honour, now aimed at the primary), ``read_unserved`` (nobody could serve
it — no routable replica *and* no live primary).  Served reads are traced
by the server that serves them (``read_served`` on replicas,
``client_read`` on the primary), so delivered-staleness accounting covers
both tiers.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.client import ServerResolver
from repro.core.group import ReplicationGroup
from repro.core.name_service import NameService
from repro.core.server import Role
from repro.core.spec import ObjectSpec
from repro.errors import NoRouteError, ReplicationError
from repro.net.link import NetworkFabric
from repro.replicas.router import POLICIES, ReadRouter
from repro.replicas.server import ReadCallback
from repro.sim.engine import Simulator
from repro.sim.events import Event

#: Read periods an outstanding read is waited for before the closed loop
#: gives up on its reply and issues again (lost-reply self-healing).
LEASE_PERIODS = 10


class ReaderClient:
    """Periodically reads registered objects through the read router."""

    def __init__(self, sim: Simulator, name_service: NameService,
                 service_name: str, router: ReadRouter,
                 resolver: ServerResolver, specs: Sequence[ObjectSpec],
                 read_period: float, name: str = "reader") -> None:
        if read_period <= 0:
            raise ValueError(f"read_period must be > 0: {read_period}")
        self.sim = sim
        self.name_service = name_service
        self.service_name = service_name
        self.router = router
        self.resolver = resolver
        self.specs = list(specs)
        self.read_period = read_period
        self.name = name
        self.reads_issued = 0
        self.reads_completed = 0
        self.reads_fallback = 0
        self.reads_unserved = 0
        #: Periods skipped because the object's previous read was still out.
        self.reads_skipped = 0
        #: object id -> issue instant of its outstanding read.
        self._outstanding: Dict[int, float] = {}
        #: object id -> the one event record its read timer re-arms.
        self._timers: Dict[int, Event] = {}
        self._lease = LEASE_PERIODS * read_period
        self._started = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start one reading timer per object (random initial phases)."""
        if self._started:
            return
        self._started = True
        for spec in self.specs:
            self.sim.schedule(0.0, self._arm, spec)

    def _arm(self, spec: ObjectSpec) -> None:
        rng = self.sim.random.stream(f"{self.name}.phase.{spec.object_id}")
        self._timers[spec.object_id] = self.sim.schedule(
            rng.uniform(0.0, self.read_period), self._tick, spec)

    def _tick(self, spec: ObjectSpec) -> None:
        """One read period of one object; re-arms its own event record."""
        now = self.sim.now
        issued_at = self._outstanding.get(spec.object_id)
        if issued_at is not None and now - issued_at < self._lease:
            self.reads_skipped += 1
        else:
            self._read_once(spec)
        self.sim.reschedule_at(self._timers[spec.object_id],
                               now + self.read_period)

    # ------------------------------------------------------------------

    def _read_once(self, spec: ObjectSpec) -> None:
        self.reads_issued += 1
        issued_at = self._outstanding[spec.object_id] = self.sim.now

        def complete(_value: bytes, _staleness: float,
                     _response: float) -> None:
            self.reads_completed += 1
            self._release(spec, issued_at)

        replica = self.router.route(spec)
        if replica is not None:
            accepted = replica.serve_read(
                spec.object_id,
                on_complete=complete,
                on_reject=lambda: self._fallback(spec, issued_at, complete))
            if accepted:
                return
        self._fallback(spec, issued_at, complete)

    def _fallback(self, spec: ObjectSpec, issued_at: float,
                  complete: "Optional[ReadCallback]" = None) -> None:
        """Aim one read at the primary; the registered contract trivially
        holds there (the primary *is* the freshest copy)."""
        self.reads_fallback += 1
        self.sim.trace.record("read_fallback", object=spec.object_id,
                              client=self.name, service=self.service_name)
        try:
            address = self.name_service.lookup(self.service_name)
        except NoRouteError:
            self._unserved(spec, issued_at)
            return
        server = self.resolver(address)
        if (server is None or not server.alive
                or server.role is not Role.PRIMARY
                or spec.object_id not in server.store):
            self._unserved(spec, issued_at)
            return
        if not server.client_read(spec.object_id, on_complete=complete):
            self._unserved(spec, issued_at)

    def _unserved(self, spec: ObjectSpec, issued_at: float) -> None:
        self.reads_unserved += 1
        self._release(spec, issued_at)
        self.sim.trace.record("read_unserved", object=spec.object_id,
                              client=self.name, service=self.service_name)

    def _release(self, spec: ObjectSpec, issued_at: float) -> None:
        # A reply that outlived its lease leaves its successor's entry be.
        if self._outstanding.get(spec.object_id) == issued_at:
            del self._outstanding[spec.object_id]


def check_read_tier(n_replicas: int, read_period: float,
                    read_policy: str) -> None:
    """Reject read-tier knobs no topology can run (pair and cluster alike)."""
    if n_replicas < 0:
        raise ReplicationError(
            f"read replicas per group must be >= 0: {n_replicas}")
    if read_period < 0:
        raise ReplicationError(f"read period must be >= 0: {read_period}")
    if read_policy not in POLICIES:
        raise ReplicationError(
            f"unknown read policy {read_policy!r}; "
            f"choose one of {', '.join(POLICIES)}")


def attach_reader(group: ReplicationGroup, fabric: NetworkFabric,
                  specs: Sequence[ObjectSpec], read_period: float,
                  policy: str, name: str = "reader") -> ReaderClient:
    """Add one reading population over ``specs`` to ``group``'s read tier.

    The group's router is built with its first reader and resolves
    replicas through the group, so it routes over whichever replicas the
    group holds at the time; reads fall back to the group's primary.
    """
    if group.router is None:
        group.router = ReadRouter(
            group.sim, group.name_service, group.name,
            resolver=group.replica_at, config=group.config, policy=policy,
            fabric=fabric)
    reader = ReaderClient(
        group.sim, group.name_service, group.name, router=group.router,
        resolver=group.server_at, specs=specs, read_period=read_period,
        name=name)
    group.readers.append(reader)
    return reader
