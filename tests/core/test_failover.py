"""Failure detection, failover, and new-backup recruitment (Section 4.4)."""

import pytest

from repro.core.server import Role
from repro.core.service import BACKUP_ADDRESS, PRIMARY_ADDRESS, RTPBService
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.metrics.collectors import failover_latency
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def make_running_service(n_spares=0, seed=5, horizon_start=True):
    service = RTPBService(seed=seed, n_spares=n_spares)
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    return service, specs


def test_backup_promotes_after_primary_crash():
    service, _specs = make_running_service()
    FaultInjector(service, FaultSchedule().crash(3.0, PRIMARY_ADDRESS)).arm()
    service.run(10.0)
    assert service.backup_server.role is Role.PRIMARY
    assert service.current_primary() is service.backup_server
    assert service.trace.select("failover")


def test_failover_latency_within_detection_bound():
    service, _specs = make_running_service()
    FaultInjector(service, FaultSchedule().crash(3.0, PRIMARY_ADDRESS)).arm()
    service.run(10.0)
    latency = failover_latency(service)
    bound = service.config.failure_detection_latency()
    assert latency is not None
    assert latency <= bound + ms(50)


def test_name_service_redirects_to_new_primary():
    service, _specs = make_running_service()
    FaultInjector(service, FaultSchedule().crash(3.0, PRIMARY_ADDRESS)).arm()
    service.run(10.0)
    assert service.name_service.lookup("rtpb") == BACKUP_ADDRESS


def test_client_writes_resume_after_failover():
    service, _specs = make_running_service()
    FaultInjector(service, FaultSchedule().crash(3.0, PRIMARY_ADDRESS)).arm()
    service.run(12.0)
    latency = failover_latency(service)
    resumed = [record for record in service.trace.select("client_response")
               if record["issue"] > 3.0 + latency + 0.2]
    assert len(resumed) > 50
    assert service.trace.select("client_activated")


def test_promoted_server_inherits_state():
    service, specs = make_running_service()
    service.run(3.0)  # let some writes replicate
    pre_crash_seqs = {spec.object_id:
                      service.backup_server.store.get(spec.object_id).seq
                      for spec in specs}
    FaultInjector(service, FaultSchedule().crash(3.0, PRIMARY_ADDRESS)).arm()
    service.run(6.0)
    new_primary = service.current_primary()
    for spec in specs:
        assert new_primary.store.get(spec.object_id).seq >= \
            pre_crash_seqs[spec.object_id]


def test_spare_recruited_as_new_backup():
    service, specs = make_running_service(n_spares=1)
    FaultInjector(service, FaultSchedule().crash(3.0, PRIMARY_ADDRESS)).arm()
    service.run(15.0)
    new_backup = service.current_backup()
    assert new_backup is not None
    assert new_backup is service.spare_servers[0]
    assert service.trace.select("recruited")
    # State transfer + registrations reached the recruit.
    for spec in specs:
        assert spec.object_id in new_backup.store
        assert new_backup.store.get(spec.object_id).seq > 0


def test_replication_continues_to_new_backup():
    service, specs = make_running_service(n_spares=1)
    FaultInjector(service, FaultSchedule().crash(3.0, PRIMARY_ADDRESS)).arm()
    service.run(20.0)
    new_backup = service.current_backup()
    late_applies = [record for record in service.trace.select("backup_apply")
                    if record.time > 10.0]
    assert late_applies
    for spec in specs:
        assert new_backup.store.get(spec.object_id).seq > 20


def test_backup_crash_triggers_recruitment_by_primary():
    service, specs = make_running_service(n_spares=1)
    FaultInjector(service, FaultSchedule().crash(3.0, BACKUP_ADDRESS)).arm()
    service.run(20.0)
    assert service.primary_server.role is Role.PRIMARY
    assert service.primary_server.alive
    new_backup = service.current_backup()
    assert new_backup is service.spare_servers[0]
    late_applies = [record for record in service.trace.select("backup_apply")
                    if record.time > 10.0]
    assert late_applies


def test_no_failover_when_disabled():
    from repro.core.spec import ServiceConfig

    service = RTPBService(seed=5, config=ServiceConfig(failover_enabled=False))
    specs = homogeneous_specs(2, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    FaultInjector(service, FaultSchedule().crash(2.0, PRIMARY_ADDRESS)).arm()
    service.run(8.0)
    assert service.backup_server.role is Role.BACKUP
    assert not service.trace.select("failover")


def test_double_crash_without_spare_leaves_no_primary():
    import pytest as _pytest

    from repro.errors import ReplicationError

    service, _specs = make_running_service()
    FaultInjector(service, FaultSchedule()
                  .crash(2.0, PRIMARY_ADDRESS)
                  .crash(6.0, BACKUP_ADDRESS)).arm()
    service.run(10.0)
    with _pytest.raises(ReplicationError):
        service.current_primary()


def test_crash_is_idempotent():
    service, _specs = make_running_service()
    service.run(1.0)
    service.primary_server.crash()
    service.primary_server.crash()
    service.run(2.0)
    assert len(service.trace.select("server_crash")) == 1
