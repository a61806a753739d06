"""Unit tests for the replica server (steady-state behaviour)."""

import pytest

from repro.core.server import Role
from repro.core.service import RTPBService
from repro.core.spec import ObjectSpec, ServiceConfig
from repro.errors import NotPrimaryError, ReplicationError
from repro.units import ms
from repro.workload.generator import homogeneous_specs, spec_for_window


def make_service(**kwargs):
    return RTPBService(seed=kwargs.pop("seed", 1), **kwargs)


def test_registration_replicates_spec_to_backup():
    service = make_service()
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    assert service.register(spec).accepted
    service.run(1.0)
    assert 0 in service.backup_server.store
    backup_record = service.backup_server.store.get(0)
    assert backup_record.spec.delta_backup == pytest.approx(
        spec.delta_backup)
    assert backup_record.update_period == pytest.approx(ms(97.5))
    assert service.trace.select("registration_replicated", object=0)


def test_register_on_backup_raises():
    service = make_service()
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    with pytest.raises(NotPrimaryError):
        service.backup_server.register_object(spec)


def test_client_write_flows_to_backup():
    service = make_service()
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    service.register(spec)
    service.start()
    responses = []
    service.sim.schedule(0.5, lambda: service.primary_server.client_write(
        0, b"hello", source_time=0.5, on_complete=responses.append))
    service.run(1.0)
    assert len(responses) == 1
    assert responses[0] < ms(5)
    backup_record = service.backup_server.store.get(0)
    assert backup_record.value == b"hello"
    assert backup_record.seq == 1


def test_write_to_unregistered_object_raises():
    service = make_service()
    service.start()
    with pytest.raises(ReplicationError):
        service.primary_server.client_write(42, b"x", 0.0)


def test_write_to_backup_rejected_and_traced():
    service = make_service()
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    service.register(spec)
    service.run(0.5)
    accepted = service.backup_server.client_write(0, b"x", 0.0)
    assert not accepted
    assert service.trace.select("client_write_rejected")


def test_stale_update_does_not_regress_backup():
    service = make_service()
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    service.register(spec)
    service.create_client([spec])
    service.run(5.0)
    backup_record = service.backup_server.store.get(0)
    history_seqs = list(backup_record.history.seqs)
    assert history_seqs == sorted(history_seqs)
    assert len(set(history_seqs)) == len(history_seqs)


def test_retransmission_request_served():
    from repro.net.link import BernoulliLoss

    # High loss needs a loss-tolerant heartbeat (otherwise the detector
    # false-triggers and the backup promotes itself mid-test).
    service = RTPBService(seed=3, loss_model=BernoulliLoss(0.4),
                          config=ServiceConfig(ping_max_misses=40))
    spec = spec_for_window(0, window=ms(150), client_period=ms(50))
    service.register(spec)
    service.create_client([spec])
    service.run(20.0)
    assert service.backup_server.retx_requests_sent > 0
    assert service.primary_server.retx_requests_served > 0
    retransmissions = service.trace.select("update_sent", retransmission=True)
    assert retransmissions


def test_crashed_server_goes_silent():
    service = make_service()
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    service.register(spec)
    service.create_client([spec])
    config = service.config
    service.start()
    service.injector.crash_at(2.0, service.backup_server)
    # Disable failover effects from the backup side: crash the backup, the
    # primary must cancel update transmission.
    service.run(6.0)
    assert not service.backup_server.alive
    late_updates = [record for record in service.trace.select("update_sent")
                    if record.time > 2.0 + config.failure_detection_latency()
                    + 0.2]
    assert late_updates == []
    assert service.trace.select("backup_lost")


def test_ack_updates_config_generates_acks():
    service = RTPBService(seed=2, config=ServiceConfig(ack_updates=True))
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    service.register(spec)
    service.create_client([spec])
    service.run(3.0)
    assert service.trace.select("update_ack")


def test_multiple_objects_isolated():
    service = make_service()
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(5.0)
    for spec in specs:
        backup_record = service.backup_server.store.get(spec.object_id)
        assert backup_record.seq > 10
