"""Scripted crashes are fault-schedule entries: the runs below pin what the
crash scripts do to the model, whatever seam armed them.

The values were recorded while these runs still scheduled their crashes
straight on the simulator (``server.crash`` / ``server.recover`` events,
no ``fault_injected`` record).  Arming the same instants as
:class:`FaultSchedule` entries at the same program point must move no
event: the counters and every metric record stay equal, and only
``fault_injected`` — left out of the narrowed trace here — is new.
"""

import pytest

from repro.baselines import EagerServer, FastPathEagerServer, MultiBackupServer
from repro.cluster.service import ClusterService
from repro.core.server import Role
from repro.core.service import BACKUP_ADDRESS, PRIMARY_ADDRESS, RTPBService
from repro.experiments import studies
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.metrics.collectors import METRIC_TRACE_CATEGORIES
from repro.net.link import BernoulliLoss
from repro.units import ms
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.generator import homogeneous_specs

PINNED_CATEGORIES = [category for category in METRIC_TRACE_CATEGORIES
                     if category != "fault_injected"]

#: ping period -> (events executed, peak pending events, records, digest)
#: of ``run_failover(period, 10.0)`` (seed 4).
FAILOVER = {
    ms(50): (3647, 25, 1211, "365c59d0f2cc72c175e27c4f4df00664"
                             "af383bd281b54bba1e56eba0f624de30"),
    ms(200): (2411, 25, 1190, "05dce56be013b72db654f016cc2c841c"
                              "5c029e71614a2d82861aae8f98abb34c"),
}
#: The backup crash (2 s) -> recover (4 s) -> re-recruit pair below.
REJOIN = (3010, 25, 1354, "c260ee268b4c46d749bd0765dc8acc3b"
                          "dcfee0d24c2817d48e978c76a29da798")


class _Narrowed(RTPBService):
    """A pair whose trace keeps only the pinned categories from birth."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace.enable_only(*PINNED_CATEGORIES)


def _fingerprint(service):
    return (service.sim.events_executed, service.sim.peak_pending_events,
            len(service.trace), service.trace.digest())


@pytest.mark.parametrize("ping_period", sorted(FAILOVER))
def test_run_failover_matches_its_pin(monkeypatch, ping_period):
    monkeypatch.setattr(studies, "RTPBService", _Narrowed)
    service = studies.run_failover(ping_period, 10.0)
    assert _fingerprint(service) == FAILOVER[ping_period]


def test_backup_crash_recover_rerecruit_matches_its_pin():
    service = _Narrowed(seed=5)
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    FaultInjector(service, FaultSchedule()
                  .crash(2.0, BACKUP_ADDRESS)
                  .recover(4.0, BACKUP_ADDRESS)).arm()
    service.run(12.0)
    assert _fingerprint(service) == REJOIN
    assert len(service.trace.select("recruited")) == 1
    assert service.backup_server.role is Role.BACKUP


def test_a_pair_has_one_fault_seam():
    """Crashes are scripted through a fault schedule only: a pair carries
    no crash scheduler of its own."""
    assert not hasattr(RTPBService(), "injector")


# The membership runs below were recorded before the role changes moved
# into one transition function; every failover, backup loss, re-attach and
# recruit in them must replay event for event.

#: ``examples/multi_backup_cluster.py``: three backups, the primary and
#: then its successor crash (seed 13, 25 s).
MULTI_BACKUP_CHAIN = (12361, 52, 4854, "4d587714f626a443a06b0c0522a29063"
                                       "7e55ffacee6c133ab9c394cb2060ce18")
#: An eager pair whose backup crashes with synchronous writes in flight:
#: the primary answers them degraded, then recruits the spare.
EAGER_DEGRADED_FLUSH = (9167, 38, 4844, "18ebc04c880e512b3a0bad47b88fcd1c"
                                        "c9dcebc7e494fff0a3d7ad7da696ee31")
#: An eager fast-path pair whose primary crashes: the backup drains its
#: witness set, promotes, recruits the spare and re-seeds.
FASTPATH_FAILOVER_RECRUIT = (3076, 30, 1601,
                             "d678a157896a1c790b760f6e0b8b6b4b"
                             "43725803489afadcc2110c240803b62b")
#: Two shards on four hosts; shard 0 loses its backup at 2 s and a total
#: loss burst from 2.3 s to 3.8 s cuts every recruit round, so the
#: manager's sweep re-nudges the unpaired primaries through ``notice_spare``.
CLUSTER_RENUDGE = (3913, 37, 1497, "56bfd5776bf48b3d806ba9c9b235f7e8"
                                   "f08cbfd15c45b61ec4b95f5265554390")


def _pair(server_class, **kwargs):
    service = _Narrowed(server_class=server_class, **kwargs)
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    return service


def test_multi_backup_chained_failover_matches_its_pin():
    service = _pair(MultiBackupServer, n_backups=3, seed=13)
    FaultInjector(service, FaultSchedule()
                  .crash(6.0, PRIMARY_ADDRESS)
                  .crash(14.0, BACKUP_ADDRESS)).arm()
    service.run(25.0)
    assert _fingerprint(service) == MULTI_BACKUP_CHAIN
    assert len(service.trace.select("failover")) == 2


def test_eager_degraded_flush_matches_its_pin():
    service = _Narrowed(server_class=EagerServer, seed=6, n_spares=1)
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(20))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    FaultInjector(service, FaultSchedule().crash(2.0, BACKUP_ADDRESS)).arm()
    service.run(6.0)
    assert _fingerprint(service) == EAGER_DEGRADED_FLUSH
    assert service.primary_server.degraded_completions > 0
    assert len(service.trace.select("recruited")) == 1


def test_fastpath_failover_then_recruit_matches_its_pin():
    service = _pair(FastPathEagerServer, seed=6, n_spares=1)
    FaultInjector(service, FaultSchedule().crash(3.0, PRIMARY_ADDRESS)).arm()
    service.run(8.0)
    assert _fingerprint(service) == FASTPATH_FAILOVER_RECRUIT
    new_primary = service.current_primary()
    assert new_primary is service.backup_server
    assert len(service.trace.select("recruited")) == 1
    assert not new_primary._draining


def test_cluster_sweep_renudge_matches_its_pin(monkeypatch):
    renudged = []
    repair = ClusterService._repair_pair

    def watched(cluster, group):
        primary = group.authoritative_primary()
        if (primary is not None and primary.peer_address is None
                and group.select("spare") is not None):
            renudged.append(group.name)
        repair(cluster, group)

    monkeypatch.setattr(ClusterService, "_repair_pair", watched)
    cluster = build_cluster(ClusterScenario(n_shards=2, n_hosts=4,
                                            n_objects=4, horizon=10.0,
                                            seed=0))
    cluster.trace.enable_only(*PINNED_CATEGORIES)
    cluster.start()
    FaultInjector(cluster, FaultSchedule()
                  .crash(2.0, "g00/backup")
                  .loss_burst(2.3, 1.5, BernoulliLoss(1.0))).arm()
    cluster.sim.run(until=10.0)
    assert _fingerprint(cluster) == CLUSTER_RENUDGE
    assert "rtpb/g00" in renudged
