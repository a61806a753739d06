"""Tests for the multiple-backup extension (the paper's future work)."""

import pytest

import repro.core.rtpb_protocol as protocol_module
import repro.core.server as server_module
from repro.baselines import MultiBackupServer, MultiBackupServerError
from repro.core.rtpb_protocol import PingAckMsg, encode_message
from repro.core.server import Role
from repro.core.service import RTPBService
from repro.core.spec import ServiceConfig
from repro.errors import ReplicationError
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def make_service(n_backups=2, seed=7, **kwargs):
    service = RTPBService(server_class=MultiBackupServer,
                          n_backups=n_backups, seed=seed, **kwargs)
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    return service, specs


def test_requires_at_least_one_backup():
    with pytest.raises(ReplicationError):
        RTPBService(server_class=MultiBackupServer, n_backups=0)
    with pytest.raises(ReplicationError, match="at most 1 backup"):
        RTPBService(n_backups=2)  # the pair protocol has one backup


def test_misconfiguration_error_is_a_replication_error():
    assert issubclass(MultiBackupServerError, ReplicationError)


def test_all_backups_receive_registrations_and_updates():
    service, specs = make_service(n_backups=3)
    service.run(5.0)
    for backup in service.backup_servers:
        for spec in specs:
            assert spec.object_id in backup.store
            assert backup.store.get(spec.object_id).seq > 10


def test_backups_stay_mutually_fresh():
    service, specs = make_service(n_backups=2)
    service.run(8.0)
    seqs = [[backup.store.get(spec.object_id).seq for spec in specs]
            for backup in service.backup_servers]
    for first, second in zip(*seqs):
        assert abs(first - second) <= 3  # within a couple of update periods


def test_single_backup_degenerates_to_base_protocol():
    service, specs = make_service(n_backups=1)
    service.run(5.0)
    backup = service.backup_servers[0]
    assert backup.store.get(specs[0].object_id).seq > 10


def test_first_backup_promotes_on_primary_crash():
    service, specs = make_service(n_backups=2)
    service.start()
    service.injector.crash_at(3.0, service.primary_server)
    service.run(12.0)
    new_primary = service.current_primary()
    assert new_primary is service.backup_servers[0]
    assert service.trace.select("failover")
    assert service.name_service.lookup("rtpb") == new_primary.host.address


def test_second_backup_reattaches_to_new_primary():
    service, specs = make_service(n_backups=2)
    service.start()
    service.injector.crash_at(3.0, service.primary_server)
    service.run(15.0)
    second = service.backup_servers[1]
    assert second.role is Role.BACKUP
    assert second.peer_address == service.backup_servers[0].host.address
    assert service.trace.select("reattached", server="backup1")
    # Replication to the re-attached backup continues.
    late = [record for record in service.trace.select("backup_apply")
            if record.time > 8.0]
    assert late
    for spec in specs:
        assert second.store.get(spec.object_id).seq > 20


def test_writes_continue_after_failover():
    service, _specs = make_service(n_backups=2)
    service.start()
    service.injector.crash_at(3.0, service.primary_server)
    service.run(12.0)
    resumed = [record for record in service.trace.select("client_response")
               if record["issue"] > 5.0]
    assert len(resumed) > 50


def test_chained_failover_walks_succession():
    service, specs = make_service(n_backups=3)
    service.start()
    service.injector.crash_at(3.0, service.primary_server)
    service.injector.crash_at(8.0, service.backup_servers[0])
    service.run(20.0)
    final_primary = service.current_primary()
    assert final_primary is service.backup_servers[1]
    assert len(service.trace.select("failover")) == 2
    # The last backup follows along.
    assert service.backup_servers[2].peer_address == \
        final_primary.host.address
    resumed = [record for record in service.trace.select("client_response")
               if record["issue"] > 12.0]
    assert len(resumed) > 50


def test_backup_crash_drops_only_that_backup():
    service, specs = make_service(n_backups=2)
    service.start()
    service.injector.crash_at(3.0, service.backup_servers[1])
    service.run(10.0)
    assert service.primary_server.role is Role.PRIMARY
    survivors = service.current_backups()
    assert survivors == [service.backup_servers[0]]
    assert service.primary_server.backup_addresses == [
        service.backup_servers[0].host.address]
    # Replication to the survivor continues.
    late = [record for record in service.trace.select("backup_apply")
            if record.time > 6.0]
    assert late


def test_all_backups_dead_stops_transmission():
    service, _specs = make_service(n_backups=2)
    service.start()
    service.injector.crash_at(2.0, service.backup_servers[0])
    service.injector.crash_at(2.0, service.backup_servers[1])
    service.run(8.0)
    bound = service.config.failure_detection_latency()
    late = [record for record in service.trace.select("update_sent")
            if record.time > 2.0 + bound + 0.5]
    assert late == []


def test_no_primary_raises():
    service, _specs = make_service(n_backups=1,
                                   config=ServiceConfig(
                                       failover_enabled=False))
    service.start()
    service.injector.crash_at(1.0, service.primary_server)
    service.run(3.0)
    with pytest.raises(ReplicationError):
        service.current_primary()


def test_primary_decodes_each_datagram_once(monkeypatch):
    """Ping acks reach the per-backup heartbeat through the handler table,
    not through a second decode in front of it."""
    service, _specs = make_service(n_backups=2)
    service.run(1.0)
    primary, backup = service.primary_server, service.backup_servers[1]
    decoded = []

    def counting_decode(data):
        decoded.append(data)
        return real_decode(data)

    real_decode = server_module.decode_message
    for module in (server_module, protocol_module):
        monkeypatch.setattr(module, "decode_message", counting_decode)
    manager = primary._backup_pings[backup.host.address]
    received = manager.acks_received
    ack = encode_message(PingAckMsg(seq=10 ** 6, echo_send_time=0.9,
                                    ack_time=1.0))
    primary._on_datagram(ack, (backup.host.address, primary.port), {})
    assert decoded == [ack]
    assert manager.acks_received == received + 1
    assert primary.ping.acks_received == 0  # not the single-peer heartbeat


def test_garbled_datagram_is_traced_on_a_multibackup_primary():
    service, _specs = make_service(n_backups=2)
    service.run(1.0)
    primary = service.primary_server
    primary._on_datagram(b"\xff\xfe not a message",
                         (service.backup_server.host.address, primary.port),
                         {})
    assert service.trace.select("rtpb_garbled", server=primary.name)
