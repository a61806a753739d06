"""Unit tests for ping-based failure detection (Section 4.4) and scripted
crash/recovery through fault-schedule entries."""

import pytest

from repro.core.failure import PingManager
from repro.core.rtpb_protocol import PingAckMsg, PingMsg, decode_message
from repro.core.server import Role
from repro.core.service import BACKUP_ADDRESS, PRIMARY_ADDRESS, RTPBService
from repro.core.spec import ServiceConfig
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.sim.engine import Simulator
from repro.units import ms
from repro.workload.generator import homogeneous_specs


class Loopback:
    """Delivers pings to a responder and acks back, with controllable loss."""

    def __init__(self, sim, delay=ms(2)):
        self.sim = sim
        self.delay = delay
        self.manager = None
        self.responding = True

    def send(self, data):
        message = decode_message(data)
        assert isinstance(message, PingMsg)
        if not self.responding:
            return
        ack = PingAckMsg(seq=message.seq, echo_send_time=message.send_time,
                         ack_time=self.sim.now + self.delay)
        self.sim.schedule(2 * self.delay, self.manager.handle_ack, ack)


def make_manager(sim, loopback, **config_overrides):
    config = ServiceConfig(ping_period=ms(50), ping_timeout=ms(20),
                           ping_max_misses=3, **config_overrides)
    dead = []
    manager = PingManager(sim, config, role=0, send=loopback.send,
                          on_peer_dead=lambda: dead.append(sim.now))
    loopback.manager = manager
    return manager, dead


def test_healthy_peer_never_declared_dead():
    sim = Simulator()
    loopback = Loopback(sim)
    manager, dead = make_manager(sim, loopback)
    manager.start()
    sim.run(until=5.0)
    assert dead == []
    assert manager.peer_alive
    assert manager.pings_sent >= 95  # one round per ping_period (50 ms)
    # The final ping's ack may still be in flight at the horizon.
    assert manager.acks_received >= manager.pings_sent - 1


def test_silent_peer_declared_dead_within_bound():
    sim = Simulator()
    loopback = Loopback(sim)
    loopback.responding = False
    manager, dead = make_manager(sim, loopback)
    manager.start()
    sim.run(until=5.0)
    assert len(dead) == 1
    # 3 misses at 20 ms timeout each: death declared by ~60 ms.
    assert dead[0] == pytest.approx(0.06, abs=0.01)
    assert not manager.peer_alive


def test_peer_dying_mid_run_detected():
    sim = Simulator()
    loopback = Loopback(sim)
    manager, dead = make_manager(sim, loopback)
    manager.start()
    sim.schedule(1.0, lambda: setattr(loopback, "responding", False))
    sim.run(until=5.0)
    assert len(dead) == 1
    config_bound = ms(50) + 3 * ms(20)
    assert 1.0 < dead[0] <= 1.0 + config_bound + ms(60)


def test_single_lost_ack_does_not_kill():
    sim = Simulator()
    loopback = Loopback(sim)
    manager, dead = make_manager(sim, loopback)
    manager.start()
    # Drop exactly one ack window.
    sim.schedule(1.0, lambda: setattr(loopback, "responding", False))
    sim.schedule(1.03, lambda: setattr(loopback, "responding", True))
    sim.run(until=5.0)
    assert dead == []
    assert manager.misses == 0  # reset after recovery


def test_stop_cancels_detection():
    sim = Simulator()
    loopback = Loopback(sim)
    loopback.responding = False
    manager, dead = make_manager(sim, loopback)
    manager.start()
    sim.schedule(0.03, manager.stop)
    sim.run(until=5.0)
    assert dead == []


def test_restart_after_stop_resets_state():
    sim = Simulator()
    loopback = Loopback(sim)
    loopback.responding = False
    manager, dead = make_manager(sim, loopback)
    manager.start()
    sim.run(until=1.0)
    assert len(dead) == 1
    loopback.responding = True
    manager.start()
    sim.run(until=3.0)
    assert manager.peer_alive
    assert len(dead) == 1  # no spurious second death


def test_make_ack_echoes_sequence():
    sim = Simulator()
    loopback = Loopback(sim)
    manager, _dead = make_manager(sim, loopback)
    ping = PingMsg(role=1, seq=17, send_time=0.5)
    ack = decode_message(manager.make_ack(ping))
    assert ack.seq == 17
    assert ack.echo_send_time == 0.5


def test_start_is_idempotent():
    sim = Simulator()
    loopback = Loopback(sim)
    manager, dead = make_manager(sim, loopback)
    manager.start()
    manager.start()
    sim.run(until=1.0)
    # One ping per round, not two.
    assert manager.pings_sent <= 21


# ---------------------------------------------------------------------------
# Scripted crash / recovery: FaultSchedule entries on a pair
# ---------------------------------------------------------------------------


def make_service(seed=5, n_spares=0):
    service = RTPBService(seed=seed, n_spares=n_spares)
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    return service


def test_recover_at_brings_server_back_as_spare():
    service = make_service()
    primary = service.primary_server
    FaultInjector(service, FaultSchedule()
                  .crash(2.0, PRIMARY_ADDRESS)
                  .recover(6.0, PRIMARY_ADDRESS)).arm()
    service.run(10.0)
    assert primary.alive
    assert primary.role is not Role.PRIMARY
    recovered = service.trace.select("server_recover")
    assert recovered and recovered[0].time == pytest.approx(6.0)


def test_recover_after_is_relative_to_now():
    service = make_service()
    backup = service.backup_server
    service.run(1.0)
    # Entries are absolute instants: 4 s after now=1.0 is 5.0.
    FaultInjector(service, FaultSchedule()
                  .crash(2.0, BACKUP_ADDRESS)
                  .recover(service.sim.now + 4.0, BACKUP_ADDRESS)).arm()
    service.run(10.0)
    recovered = service.trace.select("server_recover")
    assert recovered and recovered[0].time == pytest.approx(5.0)
    assert backup.alive


def test_crash_for_schedules_both_ends_of_the_outage():
    service = make_service()
    backup = service.backup_server
    FaultInjector(service,
                  FaultSchedule().crash_cycle(2.0, 1.5, BACKUP_ADDRESS)).arm()
    service.run(8.0)
    crashes = service.trace.select("server_crash")
    recoveries = service.trace.select("server_recover")
    assert crashes and crashes[0].time == pytest.approx(2.0)
    assert recoveries and recoveries[0].time == pytest.approx(3.5)


def test_recover_on_live_server_is_a_no_op():
    service = make_service()
    backup = service.backup_server
    FaultInjector(service, FaultSchedule().recover(3.0, BACKUP_ADDRESS)).arm()
    service.run(5.0)
    assert backup.role is Role.BACKUP  # untouched: still the pair's backup
    assert not service.trace.select("server_recover")


def test_recovered_backup_is_rerecruited_by_primary():
    """After a backup outage the primary recruits the recovered host and
    replication resumes (the rejoin path end-to-end)."""
    service = make_service()
    backup = service.backup_server
    FaultInjector(service,
                  FaultSchedule().crash_cycle(2.0, 2.0, BACKUP_ADDRESS)).arm()
    service.run(12.0)
    assert service.trace.select("backup_lost")
    assert backup.alive and backup.role is Role.BACKUP
    assert service.primary_server.peer_address == backup.host.address
    late_applies = [record for record in service.trace.select("backup_apply")
                    if record.time > 4.0]
    assert late_applies, "replication never resumed after the rejoin"
