"""The RTPB service facade: a whole deployment in one object.

Wires together everything Section 4 describes — a simulator, the LAN fabric,
primary/backup/spare hosts with their servers, the name service, the
environment, and sensing clients — so experiments and examples are a few
lines::

    service = RTPBService(seed=1)
    for spec in homogeneous_specs(8, window=ms(200), client_period=ms(100)):
        service.register(spec)
    service.create_client(service.registered_specs())
    service.run(horizon=30.0)
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Type

from repro.core.admission import AdmissionDecision
from repro.core.client import SensorClient
from repro.core.group import ReplicationGroup
from repro.core.name_service import NameService
from repro.core.server import ReplicaServer
from repro.core.spec import InterObjectConstraint, ObjectSpec, ServiceConfig
from repro.errors import ReplicationError
from repro.net.ip import Host
from repro.net.link import LossModel, NetworkFabric
from repro.sim.engine import Simulator
from repro.workload.environment import EnvironmentModel

PRIMARY_ADDRESS = 1
#: The first backup; spares follow the last backup.
BACKUP_ADDRESS = 2


class RTPBService(ReplicationGroup):
    """A complete single-group deployment inside one simulator: the
    :class:`ReplicationGroup` seated on hosts of its own, with its own
    simulator, fabric and name service.

    ``server_class`` is the replication discipline — the
    :class:`ReplicaServer` subclass every member runs, whatever its role
    (see :data:`repro.baselines.DISCIPLINES`) — and ``n_backups`` the
    length of the succession line (more than one needs a discipline that
    replicates to several, i.e. ``multi_backup``).
    """

    def __init__(self, config: Optional[ServiceConfig] = None, seed: int = 0,
                 loss_model: Optional[LossModel] = None, n_spares: int = 0,
                 service_name: str = "rtpb",
                 server_class: Type[ReplicaServer] = ReplicaServer,
                 n_backups: int = 1) -> None:
        if n_backups < 1:
            raise ReplicationError(
                f"need at least one backup, got {n_backups}")
        config = config if config is not None else ServiceConfig()
        sim = Simulator(seed=seed)
        self.fabric = NetworkFabric(
            sim, delay_bound=config.ell,
            delay_min=config.link_delay_min, loss_model=loss_model)
        super().__init__(sim, config, NameService(sim), service_name)
        self.environment = EnvironmentModel(seed=seed)

        # Hosts take consecutive fabric addresses: the primary, the backups
        # in succession order, the spares (each named after its address).
        n_members = 1 + n_backups
        names = server_class.host_names(n_backups)
        names += [f"spare{PRIMARY_ADDRESS + n_members + index}"
                  for index in range(n_spares)]
        hosts = [Host(self.sim, self.fabric, name, PRIMARY_ADDRESS + index)
                 for index, name in enumerate(names)]
        self.members = server_class.build_group(
            self.sim, self.config, self.name_service, service_name,
            primary=hosts[0], backups=hosts[1:n_members],
            spares=hosts[n_members:])
        self.primary_server = self.members[0]
        #: The initial backups, in succession order.
        self.backup_servers: List[ReplicaServer] = self.members[1:n_members]
        self.backup_server = self.backup_servers[0]
        self.spare_servers: List[ReplicaServer] = self.members[n_members:]
        self._started = False

    @property
    def extensions(self) -> List[RTPBService]:
        """``[self]``: the group answers for its read tier (``readers``).

        Kept only because ``benchmarks/e2e/workloads.py`` (``ReadHeavy``)
        reads ``deployment.extensions[*].readers``; it goes when ROADMAP's
        contract step 1 gives that file a public readers accessor.
        """
        return [self]

    # ------------------------------------------------------------------
    # Configuration phase
    # ------------------------------------------------------------------

    def add_constraint(self, constraint: InterObjectConstraint
                       ) -> AdmissionDecision:
        return self.current_primary().add_constraint(constraint)

    def create_client(self, specs: Sequence[ObjectSpec],
                      name: str = "client",
                      write_jitter: float = 0.0) -> SensorClient:
        """Create the sensing client application for ``specs``.

        The client object is registered as the local client application on
        every member, modelling the paper's primary-resident client and its
        backup-resident replica copy (activated at failover).
        """
        client = SensorClient(
            self.sim, self.environment, self.name_service, self.service_name,
            resolver=self.resolve_server, specs=specs, name=name,
            write_jitter=write_jitter)
        self.clients.append(client)
        for server in self.members:
            server.local_client = client
        return client

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for server in self.members:
            server.start()
        for client in self.clients:
            client.start()
        for replica in self.replicas:
            replica.start()
        for reader in self.readers:
            reader.start()

    def run(self, horizon: float) -> None:
        """Run the deployment until virtual time ``horizon``."""
        self.start()
        self.sim.run(until=horizon)

    # ------------------------------------------------------------------
    # Deployment surface (shared with the sharded cluster)
    # ------------------------------------------------------------------

    #: A client's address → server resolver (one server per host here).
    resolve_server = ReplicationGroup.server_at

    def kill_host(self, address: int) -> None:
        """Take a machine down: each server — member or read replica — owns
        its host, so this is the resident's crash."""
        for resident in self.residents(address):
            resident.crash()
