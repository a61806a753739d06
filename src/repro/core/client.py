"""The sensing client application.

"A client application resides on the same machine as the primary.  The
client continuously senses the environment and periodically sends updates to
the primary" through a Mach-IPC-style interface — here a direct call into
:meth:`~repro.core.server.ReplicaServer.client_write`, whose CPU cost models
the cross-domain RPC.

"There are two identical versions of the client application residing on the
primary and backup hosts respectively.  Normally, only the primary client
application is running" — one :class:`SensorClient` object models the logical
client; it locates the current primary through the name service on every
write, and :meth:`activate` is the failover up-call that switches the
replica copy on.
"""

from __future__ import annotations

from collections import Counter
from random import Random
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.name_service import NameService
from repro.core.server import ReplicaServer, Role
from repro.core.spec import ObjectSpec
from repro.errors import NoRouteError
from repro.sim.engine import Simulator
from repro.sim.events import Event

#: Resolves a fabric address to the server object living there.
ServerResolver = Callable[[int], Optional[ReplicaServer]]


class SensorClient:
    """Periodically samples the environment and writes to the primary."""

    def __init__(self, sim: Simulator, environment: "EnvironmentModel",
                 name_service: NameService, service_name: str,
                 resolver: ServerResolver, specs: Sequence[ObjectSpec],
                 name: str = "client", write_jitter: float = 0.0,
                 active: bool = True) -> None:
        self.sim = sim
        self.environment = environment
        self.name_service = name_service
        self.service_name = service_name
        self.resolver = resolver
        self.specs = list(specs)
        self.name = name
        self.write_jitter = write_jitter
        self.active = active
        #: Writes the primary accepted, by object.
        self.issued: Counter[int] = Counter()
        self.writes_refused = 0
        #: Write-rate multiplier (flash-crowd injection): 2.0 doubles the
        #: offered load of every object loop.  Exactly 1.0 leaves the loop
        #: arithmetic — and every historical trace digest — untouched.
        self.rate_scale = 1.0
        #: Per-object loop generation: a loop only writes while it carries
        #: the current generation, so freeze/abort/re-freeze cycles never
        #: leave two live loops for one object.
        self._loop_gen: Dict[int, int] = {}
        #: object id -> the event record its current loop re-arms.
        self._timers: Dict[int, Event] = {}
        self._started = False

    @property
    def writes_issued(self) -> int:
        """Writes the primary accepted, all objects together."""
        return sum(self.issued.values())

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start one sensing timer per object (random initial phases)."""
        if self._started:
            return
        self._started = True
        for spec in self.specs:
            self._spawn_loop(spec)

    def _spawn_loop(self, spec: ObjectSpec) -> None:
        generation = self._loop_gen.get(spec.object_id, 0) + 1
        self._loop_gen[spec.object_id] = generation
        self.sim.schedule(0.0, self._arm, spec, generation)

    def activate(self, _server: ReplicaServer) -> None:
        """Failover up-call: the replica client takes over the sensing task."""
        self.active = True
        self.sim.trace.record("client_activated", client=self.name)

    def add_objects(self, specs: Sequence[ObjectSpec]) -> None:
        """Begin sensing new objects (live migration hand-off).

        Already-known object ids are skipped, and a spec whose id is in the
        dropped set is *resurrected* (a migration that aborted re-adds the
        frozen objects to the source client).
        """
        known = {spec.object_id for spec in self.specs}
        for spec in specs:
            if spec.object_id in known:
                continue
            self.specs.append(spec)
            known.add(spec.object_id)
            if self._started:
                self._spawn_loop(spec)

    def remove_objects(self, object_ids: Sequence[int]) -> None:
        """Stop sensing the given objects (freeze step of a migration).

        Bumping the generation invalidates the live loop: it terminates at
        its next wake-up, and no write is *issued* after this call returns
        because the generation check sits ahead of the write in the loop.
        """
        dropping = set(object_ids)
        for object_id in sorted(dropping):
            if object_id in self._loop_gen:
                self._loop_gen[object_id] += 1
        self.specs = [spec for spec in self.specs
                      if spec.object_id not in dropping]

    # ------------------------------------------------------------------

    def _arm(self, spec: ObjectSpec, generation: int) -> None:
        rng = self.sim.random.stream(f"{self.name}.phase.{spec.object_id}")
        self._timers[spec.object_id] = self.sim.schedule(
            rng.uniform(0.0, spec.client_period), self._tick, spec,
            generation, rng)

    def _tick(self, spec: ObjectSpec, generation: int, rng: Random) -> None:
        """One write period; re-arms its record while ``generation`` holds."""
        if self._loop_gen.get(spec.object_id) != generation:
            return
        if self.active:
            self._write_once(spec)
        delay = spec.client_period
        if self.rate_scale != 1.0:
            delay /= self.rate_scale
        if self.write_jitter > 0:
            delay = max(1e-6, delay + rng.uniform(-self.write_jitter,
                                                  self.write_jitter))
        self.sim.reschedule_at(self._timers[spec.object_id],
                               self.sim.now + delay)

    def _write_once(self, spec: ObjectSpec) -> None:
        try:
            address = self.name_service.lookup(self.service_name)
        except NoRouteError:
            self.writes_refused += 1
            return
        server = self.resolver(address)
        if server is None or not server.alive or server.role is not Role.PRIMARY:
            self.writes_refused += 1
            return
        if spec.object_id not in server.store:
            self.writes_refused += 1
            return
        sample_time = self.sim.now
        value = self.environment.sample(spec.object_id, sample_time,
                                        spec.size_bytes)
        accepted = server.client_write(spec.object_id, value,
                                       source_time=sample_time)
        if accepted:
            self.issued[spec.object_id] += 1
        else:
            self.writes_refused += 1


from repro.workload.environment import EnvironmentModel  # noqa: E402
