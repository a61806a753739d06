"""Unit tests for the fault injector: arming, firing, target resolution."""

import pytest

from repro.core.server import Role
from repro.core.service import (
    BACKUP_ADDRESS,
    PRIMARY_ADDRESS,
    RTPBService,
)
from repro.errors import ProtocolError, ReplicationError
from repro.faults.actions import (
    ClockDrift,
    CrashServer,
    DelaySpike,
    DuplicateMessages,
    LossBurst,
)
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import SCENARIOS, build
from repro.faults.schedule import FaultSchedule
from repro.net.link import BernoulliLoss, NoLoss
from repro.units import ms
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.generator import homogeneous_specs
from repro.workload.scenarios import Scenario


def make_service(seed=5, n_spares=0):
    service = RTPBService(seed=seed, n_spares=n_spares)
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    return service


def test_armed_schedule_fires_at_virtual_times():
    service = make_service()
    schedule = FaultSchedule().crash(3.0, "primary")
    injector = FaultInjector(service, schedule)
    injector.arm()
    service.run(10.0)
    assert not service.primary_server.alive
    assert injector.applied == [
        {"time": 3.0, "kind": "crash", "target": "primary"}]
    fault_records = service.trace.select("fault_injected")
    assert len(fault_records) == 1 and fault_records[0].time == 3.0


def test_arm_is_idempotent():
    service = make_service()
    injector = FaultInjector(service, FaultSchedule().crash(3.0, "backup"))
    injector.arm()
    injector.arm()
    service.run(5.0)
    assert len(injector.applied) == 1


def test_role_targets_resolve_at_fire_time():
    """'primary' at t=8 must hit the *promoted* backup, not address 1."""
    service = make_service()
    schedule = FaultSchedule().crash(3.0, "primary").crash(8.0, "primary")
    injector = FaultInjector(service, schedule)
    injector.arm()
    service.run(12.0)
    assert not service.primary_server.alive   # the original, at t=3
    assert not service.backup_server.alive    # promoted, then hit at t=8


def test_unresolvable_role_target_is_a_noop():
    service = make_service()  # no spares: after backup dies there is none
    schedule = FaultSchedule().crash(2.0, "backup").crash(6.0, "backup")
    injector = FaultInjector(service, schedule)
    injector.arm()
    service.run(10.0)
    # Both entries fired (and were logged); the second found no backup.
    assert len(injector.applied) == 2
    assert service.primary_server.alive


def test_resolution_by_address_and_name():
    service = make_service()
    injector = FaultInjector(service)
    assert injector.resolve_server(PRIMARY_ADDRESS) is service.primary_server
    assert injector.resolve_server("backup") is service.backup_server
    assert injector.resolve_server("nonesuch") is None
    assert injector.resolve_address("primary") == PRIMARY_ADDRESS
    with pytest.raises(ProtocolError):
        injector.resolve_address("nonesuch")


def test_inject_now_applies_immediately():
    service = make_service()
    injector = FaultInjector(service)
    service.run(1.0)
    injector.inject_now(CrashServer(BACKUP_ADDRESS))
    assert not service.backup_server.alive
    assert injector.applied[0]["time"] == pytest.approx(1.0)


def test_loss_burst_swaps_and_restores_the_loss_model():
    service = make_service()
    baseline = service.fabric.loss_model
    assert isinstance(baseline, NoLoss)
    injector = FaultInjector(
        service, FaultSchedule().loss_burst(2.0, 1.5, BernoulliLoss(0.9)))
    injector.arm()
    service.run(2.5)
    assert isinstance(service.fabric.loss_model, BernoulliLoss)
    service.run(4.0)
    assert service.fabric.loss_model is baseline


def test_delay_spike_restores_the_delay_window():
    service = make_service()
    before = (service.fabric.delay_min, service.fabric.delay_bound)
    injector = FaultInjector(
        service, FaultSchedule().delay_spike(2.0, 1.0, factor=4.0))
    injector.arm()
    service.run(2.5)
    assert service.fabric.delay_bound == pytest.approx(before[1] * 4.0)
    service.run(4.0)
    assert (service.fabric.delay_min,
            service.fabric.delay_bound) == pytest.approx(before)


def test_duplicate_and_corrupt_windows_restore():
    service = make_service()
    schedule = (FaultSchedule()
                .duplicate(1.0, 2.0, probability=1.0)
                .corrupt(1.0, 2.0, probability=0.5))
    injector = FaultInjector(service, schedule)
    injector.arm()
    service.run(2.0)
    assert service.fabric.duplicate_probability == 1.0
    assert service.fabric.corrupt_probability == 0.5
    service.run(4.0)
    assert service.fabric.duplicate_probability == 0.0
    assert service.fabric.corrupt_probability == 0.0
    assert service.fabric.messages_duplicated > 0


def test_clock_drift_applies_and_snaps_back():
    service = make_service()
    injector = FaultInjector(
        service,
        FaultSchedule().clock_drift(1.0, BACKUP_ADDRESS, scale=2.0,
                                    duration=2.0))
    injector.arm()
    service.run(2.0)
    assert service.backup_server.ping.clock_scale == 2.0
    service.run(4.0)
    assert service.backup_server.ping.clock_scale == 1.0


def test_partition_and_recover_cycle_restores_the_pair():
    """Crash the backup inside a partition, heal, recover: the pair reforms."""
    service = make_service()
    schedule = (FaultSchedule()
                .partition_window(2.0, 4.0, PRIMARY_ADDRESS, BACKUP_ADDRESS)
                .crash(3.0, BACKUP_ADDRESS)
                .recover(6.0, BACKUP_ADDRESS))
    injector = FaultInjector(service, schedule)
    injector.arm()
    service.run(15.0)
    assert not service.fabric.is_partitioned(PRIMARY_ADDRESS, BACKUP_ADDRESS)
    assert service.backup_server.alive
    assert service.backup_server.role is Role.BACKUP
    assert service.primary_server.peer_address == BACKUP_ADDRESS


def test_arming_past_faults_rejected():
    service = make_service()
    service.run(5.0)
    injector = FaultInjector(service, FaultSchedule().crash(1.0, "primary"))
    with pytest.raises(ProtocolError):
        injector.arm()


def test_past_action_validation_errors_surface():
    service = make_service()
    injector = FaultInjector(service)
    with pytest.raises(ProtocolError):
        injector.inject_now(LossBurst(-1.0, BernoulliLoss(0.5)))
    with pytest.raises(ProtocolError):
        injector.inject_now(DelaySpike(1.0, factor=0.0))
    with pytest.raises(ProtocolError):
        injector.inject_now(DuplicateMessages(1.0, probability=2.0))
    with pytest.raises(ReplicationError):
        injector.inject_now(ClockDrift("backup", scale=0.0))


# ----------------------------------------------------------------------
# One target grammar, every topology
# ----------------------------------------------------------------------

def _resolver(topology, split):
    """A deployment's injector at t=3 s.  With ``split`` a backup's host
    was isolated at t=1 s: it declared its primary dead and promoted
    itself, so two primaries are live and the name file points at the
    promoted one (the pair's backup; g01's backup in the cluster)."""
    if topology == "pair":
        service = make_service(n_spares=1)
        victim = BACKUP_ADDRESS
    else:
        service = build_cluster(ClusterScenario(
            n_shards=2, n_hosts=5, n_objects=8, seed=0,
            n_replicas=1, read_period=ms(20)))
        service.start()
        victim = "g01/backup"
    schedule = FaultSchedule()
    if split:
        schedule.isolate(1.0, 5.0, victim)
    injector = FaultInjector(service, schedule)
    injector.arm()
    service.run(3.0)
    return injector


#: (topology, split, target, the server name it resolves to).  Role
#: selectors resolve in the group a prefix names, or — bare — in the only
#: group of a one-group deployment; anything else is an address, host name
#: or server name.
RESOLUTIONS = [
    ("pair", False, "primary", "primary"),
    ("pair", False, "backup", "backup"),
    ("pair", False, "spare", "spare3"),
    ("pair", False, "deposed", None),
    ("pair", False, "replica0", None),
    ("pair", False, "rtpb/primary", "primary"),
    ("pair", False, PRIMARY_ADDRESS, "primary"),
    ("pair", False, "spare3", "spare3"),
    ("pair", False, "nonesuch", None),
    # The split-brain instant.  ``primary`` is the authoritative primary
    # (the one the name file points at), else the first live one — the
    # rule shards always used.  A pair used to take the first live
    # primary by address, the deposed one here; no catalogue entry sees
    # the difference (test_no_pair_catalogue_entry_targets_a_role).
    ("pair", True, "primary", "backup"),
    ("pair", True, "deposed", "primary"),
    ("pair", True, "backup", "spare3"),
    ("pair", True, BACKUP_ADDRESS, "backup"),
    ("cluster", False, "g01/primary", "rtpb/g01@host2"),
    ("cluster", False, "g01/backup", "rtpb/g01@host3"),
    ("cluster", False, "g01/spare", None),
    ("cluster", False, "g01/deposed", None),
    ("cluster", False, "g01/replica0", "rtpb/g01/replica0@host1"),
    ("cluster", False, "rtpb/g01/primary", "rtpb/g01@host2"),
    ("cluster", False, "g1/backup", "rtpb/g01@host3"),
    ("cluster", False, 2, "rtpb/g01@host2"),
    ("cluster", False, 1, None),  # hosts only g01's read replica
    ("cluster", False, "host5", "rtpb/g00@host5"),
    ("cluster", False, "rtpb/g01@host3", "rtpb/g01@host3"),
    ("cluster", False, "primary", None),  # two groups: a bare role is ambiguous
    ("cluster", False, "g07/primary", None),
    ("cluster", True, "g01/primary", "rtpb/g01@host3"),
    ("cluster", True, "g01/deposed", "rtpb/g01@host2"),
    ("cluster", True, "g01/spare", "rtpb/g01@host5"),
    ("cluster", True, "g01/backup", None),
]


@pytest.mark.parametrize("topology, split, target, expected", RESOLUTIONS,
                         ids=[f"{topology}-{'split' if split else 'steady'}"
                              f"-{target}"
                              for topology, split, target, _ in RESOLUTIONS])
def test_one_target_grammar_on_every_topology(topology, split, target,
                                              expected):
    server = _resolver(topology, split).resolve_server(target)
    assert (server.name if server is not None else None) == expected


def test_no_pair_catalogue_entry_targets_a_role():
    # Chaos schedules aim at a pair by fabric address only, so the one
    # split-brain rule for ``primary`` changes no catalogue run.
    for name in SCENARIOS:
        chaos = build(name)
        if not isinstance(chaos.workload, Scenario):
            continue
        for entry in chaos.schedule.entries:
            for field in ("target", "a", "b"):
                target = getattr(entry.action, field, None)
                assert target is None or isinstance(target, int), (
                    name, target)
