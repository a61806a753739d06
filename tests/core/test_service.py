"""Unit tests for the RTPBService facade."""

import pytest

from repro.core.server import Role
from repro.core.service import (
    BACKUP_ADDRESS,
    PRIMARY_ADDRESS,
    RTPBService,
)
from repro.errors import ReplicationError
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def test_deployment_wiring():
    service = RTPBService(seed=1, n_spares=2)
    assert service.primary_server.role is Role.PRIMARY
    assert service.backup_server.role is Role.BACKUP
    assert len(service.spare_servers) == 2
    assert service.resolve_server(PRIMARY_ADDRESS) is service.primary_server
    assert service.resolve_server(BACKUP_ADDRESS) is service.backup_server
    assert service.resolve_server(BACKUP_ADDRESS + 1) is \
        service.spare_servers[0]
    assert service.resolve_server(99) is None


def test_current_primary_and_backup():
    service = RTPBService(seed=1)
    assert service.current_primary() is service.primary_server
    assert service.current_backup() is service.backup_server


def test_no_live_primary_raises():
    service = RTPBService(seed=1)
    service.primary_server.crash()
    with pytest.raises(ReplicationError):
        service.current_primary()


def test_registered_specs_tracks_accepted_only():
    service = RTPBService(seed=1)
    specs = homogeneous_specs(100, window=ms(60), client_period=ms(50))
    decisions = service.register_all(specs)
    accepted = [d for d in decisions if d.accepted]
    assert len(service.registered_specs()) == len(accepted)
    assert 0 < len(accepted) < 100


def test_start_is_idempotent():
    service = RTPBService(seed=1)
    specs = homogeneous_specs(2, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    service.start()
    service.run(1.0)
    # Name service published exactly once.
    assert len(service.name_service.changes) == 1


def test_run_can_be_called_in_stages():
    service = RTPBService(seed=1)
    specs = homogeneous_specs(2, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(2.0)
    mid_count = len(service.trace.select("primary_write"))
    service.run(4.0)
    assert len(service.trace.select("primary_write")) > mid_count


def test_client_registered_on_all_replicas():
    service = RTPBService(seed=1, n_spares=1)
    specs = homogeneous_specs(1, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    client = service.create_client(specs)
    assert service.primary_server.local_client is client
    assert service.backup_server.local_client is client
    assert service.spare_servers[0].local_client is client
