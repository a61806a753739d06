"""Multi-backup behaviour under message loss."""

import pytest

from repro.baselines import MultiBackupServer
from repro.core.service import RTPBService
from repro.core.spec import ServiceConfig
from repro.net.link import BernoulliLoss
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def make_lossy_service(n_backups=2, loss=0.1, seed=17):
    config = ServiceConfig(ping_max_misses=40)
    service = RTPBService(server_class=MultiBackupServer,
                          n_backups=n_backups, seed=seed, config=config,
                          loss_model=BernoulliLoss(loss))
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    return service, specs


def test_registrations_reach_every_backup_despite_loss():
    service, specs = make_lossy_service(n_backups=3, loss=0.2)
    service.run(5.0)
    for backup in service.backup_servers:
        for spec in specs:
            assert spec.object_id in backup.store


def test_per_backup_retransmission_under_loss():
    service, specs = make_lossy_service(n_backups=2, loss=0.25)
    service.run(20.0)
    # At 25% loss each backup's watchdog fires independently; the primary
    # serves all of them.
    requested = sum(backup.retx_requests_sent
                    for backup in service.backup_servers)
    assert requested > 0
    assert service.primary_server.retx_requests_served > 0


def test_backups_converge_despite_independent_loss():
    service, specs = make_lossy_service(n_backups=3, loss=0.15)
    service.run(20.0)
    for spec in specs:
        primary_seq = service.primary_server.store.get(spec.object_id).seq
        for backup in service.backup_servers:
            backup_seq = backup.store.get(spec.object_id).seq
            # Within a few update periods of the primary at all times.
            assert primary_seq - backup_seq <= 6


def test_loss_tolerant_heartbeat_prevents_false_failover():
    service, _specs = make_lossy_service(n_backups=2, loss=0.2)
    service.run(20.0)
    assert not service.trace.select("failover")
    assert service.current_primary() is service.primary_server
