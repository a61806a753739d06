"""Regression tests for per-object replication state across backup churn.

Two bugs fixed together:

- A ``RegisterAck`` in flight from a dead (or deposed) backup could land
  after the primary recruited a replacement, re-marking the object as
  replicated and silently skipping the REGISTER toward the *new* backup —
  which then discarded that object's updates forever.
- Exhausting the REGISTER retry budget left the pair silently diverged:
  the transmitter kept replicating an object the backup never admitted.
  The condition is now a traced ``replication_degraded`` state (visible to
  the invariant monitor as a degraded finding, not a violation) with a
  slow background reprobe.
"""

from repro.core.rtpb_protocol import RegisterAckMsg
from repro.core.server import Role
from repro.core.service import BACKUP_ADDRESS, PRIMARY_ADDRESS, RTPBService
from repro.core.spec import ServiceConfig
from repro.faults.injector import FaultInjector
from repro.faults.monitor import InvariantMonitor
from repro.faults.schedule import FaultSchedule
from repro.net.link import BernoulliLoss, NoLoss
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def make_running_service(n_spares=0, seed=5, n_objects=3, **kwargs):
    service = RTPBService(seed=seed, n_spares=n_spares, **kwargs)
    specs = homogeneous_specs(n_objects, window=ms(200),
                              client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    return service, specs


def test_register_ack_from_unknown_source_is_ignored():
    service, _specs = make_running_service()
    service.run(3.0)
    primary = service.primary_server
    assert 0 in primary._register_acked
    primary._register_acked.discard(0)
    # An ack not from the current peer must not re-arm the object.
    primary._handle_register_ack(
        RegisterAckMsg(object_id=0, accepted=True), source_address=99)
    assert 0 not in primary._register_acked
    primary._handle_register_ack(
        RegisterAckMsg(object_id=0, accepted=True),
        source_address=primary.peer_address)
    assert 0 in primary._register_acked


def test_recruit_rearms_registration_for_every_object():
    """Recruit after registration: even if stale ack state re-populated
    the acked set while the primary was unpaired, installing the new
    backup must clear it, re-run REGISTER, and converge the stores."""
    service, specs = make_running_service(n_spares=1)
    FaultInjector(service, FaultSchedule().crash(3.0, BACKUP_ADDRESS)).arm()
    primary = service.primary_server

    # Simulate in-flight RegisterAcks from the dead backup landing
    # throughout the unpaired window (the regression's trigger): keep
    # re-marking object 0 as replicated until a new backup is installed.
    def pollute() -> None:
        if primary.peer_address is None:
            primary._register_acked.add(0)
        if service.sim.now < 8.0:
            service.sim.schedule(0.01, pollute)

    service.sim.schedule(3.0, pollute)
    service.run(20.0)
    new_backup = service.current_backup()
    assert new_backup is service.spare_servers[0]
    replicated_to_new = {
        record["object"]
        for record in service.trace.select("registration_replicated")
        if record["backup"] == new_backup.host.address}
    assert replicated_to_new == {spec.object_id for spec in specs}
    for spec in specs:
        assert spec.object_id in new_backup.store
        assert new_backup.store.get(spec.object_id).seq > 0


def test_registration_give_up_is_traced_degraded():
    """Total loss: REGISTER exhausts its retries; the condition surfaces
    as a ``replication_degraded`` trace record (once per object) and the
    monitor collects it as a degraded finding, not a violation."""
    config = ServiceConfig(ping_max_misses=10_000)  # mute the detector
    service = RTPBService(seed=7, config=config,
                          loss_model=BernoulliLoss(1.0))
    monitor = InvariantMonitor(service)
    monitor.attach()
    specs = homogeneous_specs(2, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.run(3.0)
    degraded = service.trace.select("replication_degraded")
    assert {record["object"] for record in degraded} == {0, 1}
    assert all(record["reason"] == "registration_unacked"
               for record in degraded)
    # One transition record per object, however many reprobe cycles ran.
    assert len(degraded) == 2
    assert service.primary_server.degraded_objects == {0, 1}
    assert monitor.degraded_counts() == {"replication_degraded": 2}
    assert monitor.violations == []


def test_reprobe_recovers_once_the_network_heals():
    config = ServiceConfig(ping_max_misses=10_000)
    service = RTPBService(seed=7, config=config,
                          loss_model=BernoulliLoss(1.0))
    specs = homogeneous_specs(2, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.run(2.0)
    assert service.primary_server.degraded_objects == {0, 1}
    service.fabric.set_loss_model(NoLoss())
    service.run(6.0)
    # The background reprobe re-sent REGISTER and the acks cleared the
    # degraded state.
    assert service.primary_server.degraded_objects == set()
    assert service.primary_server._register_acked == {0, 1}
    for spec in specs:
        assert spec.object_id in service.backup_server.store


def test_failover_clears_degraded_state():
    """A promoted backup starts with a clean slate: degraded markers
    belong to the dead primary's pairing, not the new one."""
    service, _specs = make_running_service(n_spares=1, seed=6)
    service.primary_server.degraded_objects.add(1)
    FaultInjector(service, FaultSchedule().crash(3.0, PRIMARY_ADDRESS)).arm()
    service.run(15.0)
    new_primary = service.current_primary()
    assert new_primary is service.backup_server
    assert new_primary.role is Role.PRIMARY
    assert new_primary.degraded_objects == set()
