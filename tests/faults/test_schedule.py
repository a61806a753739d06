"""Unit tests for the declarative fault schedule."""

import pytest

from repro.errors import ProtocolError
from repro.faults.actions import CrashServer, RecoverServer
from repro.faults.schedule import FaultSchedule, TimedFault
from repro.net.link import BernoulliLoss, GilbertElliottLoss


def test_builder_chains_and_orders_entries():
    schedule = (FaultSchedule()
                .crash(5.0, "primary")
                .partition(1.0, 1, 2)
                .heal(3.0, 1, 2))
    times = [entry.time for entry in schedule.entries]
    assert times == [1.0, 3.0, 5.0]
    assert len(schedule) == 3


def test_entries_stable_for_equal_times():
    schedule = FaultSchedule().crash(2.0, "a").recover(2.0, "b")
    kinds = [entry.action.kind for entry in schedule.entries]
    assert kinds == ["crash", "recover"]  # insertion order preserved


def test_negative_time_rejected():
    with pytest.raises(ProtocolError):
        TimedFault(-1.0, CrashServer("primary"))


def test_crash_cycle_expands_to_crash_and_recover():
    schedule = FaultSchedule().crash_cycle(4.0, 1.5, "backup")
    (crash, recover) = schedule.entries
    assert isinstance(crash.action, CrashServer) and crash.time == 4.0
    assert isinstance(recover.action, RecoverServer) and recover.time == 5.5
    with pytest.raises(ProtocolError):
        FaultSchedule().crash_cycle(4.0, 0.0, "backup")


def test_partition_window_validation():
    with pytest.raises(ProtocolError):
        FaultSchedule().partition_window(5.0, 5.0, 1, 2)


def test_shifted_moves_every_entry():
    schedule = FaultSchedule().crash(1.0, "primary").heal_all(2.0)
    shifted = schedule.shifted(10.0)
    assert [entry.time for entry in shifted.entries] == [11.0, 12.0]
    # The original is untouched.
    assert [entry.time for entry in schedule.entries] == [1.0, 2.0]


def test_merge_and_add_compose_schedules():
    a = FaultSchedule().crash(1.0, "primary")
    b = FaultSchedule().recover(2.0, "primary")
    merged = a + b
    assert len(merged) == 2
    assert [entry.action.kind for entry in merged.entries] == [
        "crash", "recover"]
    assert len(a) == 1 and len(b) == 1  # inputs untouched


def test_flapping_is_deterministic_per_seed():
    kwargs = dict(target=2, start=1.0, end=30.0,
                  mean_uptime=3.0, mean_outage=1.0)
    first = FaultSchedule.flapping(seed=9, **kwargs).describe()
    second = FaultSchedule.flapping(seed=9, **kwargs).describe()
    different = FaultSchedule.flapping(seed=10, **kwargs).describe()
    assert first == second
    assert first != different


def test_flapping_cycles_stay_inside_the_window():
    schedule = FaultSchedule.flapping(seed=3, target=2, start=2.0, end=15.0,
                                      mean_uptime=2.0, mean_outage=1.0)
    assert len(schedule) > 0 and len(schedule) % 2 == 0
    for entry in schedule.entries:
        assert 2.0 <= entry.time < 15.0
    # Pairs alternate crash/recover.
    kinds = [entry.action.kind for entry in schedule.entries]
    assert kinds == ["crash", "recover"] * (len(kinds) // 2)


def test_flapping_validation():
    with pytest.raises(ProtocolError):
        FaultSchedule.flapping(seed=0, target=2, start=5.0, end=5.0,
                               mean_uptime=1.0, mean_outage=1.0)


def test_flash_crowd_and_drain_host_ride_the_builder():
    schedule = (FaultSchedule()
                .flash_crowd(3.0, 2.0, 8.0)
                .drain_host(5.0, "g00/primary"))
    timeline = schedule.describe()
    assert timeline[0] == {"time": 3.0, "kind": "flash_crowd",
                           "duration": 2.0, "factor": 8.0}
    assert timeline[1] == {"time": 5.0, "kind": "drain_host",
                           "target": "g00/primary"}


def test_flash_crowd_validates_its_parameters():
    from repro.faults.actions import FlashCrowd

    class _Injector:
        service = None

    with pytest.raises(ProtocolError):
        FlashCrowd(duration=0.0, factor=8.0).apply(_Injector())
    with pytest.raises(ProtocolError):
        FlashCrowd(duration=2.0, factor=-1.0).apply(_Injector())


def test_drain_host_is_a_noop_without_the_cluster_facade():
    # Single-group services expose no ``mark_draining``: the schedule stays
    # portable and the action quietly does nothing.
    from repro.faults.actions import DrainHost

    class _Injector:
        class service:
            pass

    DrainHost(target=3).apply(_Injector())


def test_describe_is_json_safe_timeline():
    schedule = (FaultSchedule()
                .loss_burst(1.0, 2.0, BernoulliLoss(0.5))
                .crash(3.0, "primary"))
    timeline = schedule.describe()
    assert timeline[0]["kind"] == "loss_burst"
    assert timeline[0]["loss_model"] == BernoulliLoss(0.5).describe()
    assert timeline[1] == {"time": 3.0, "kind": "crash", "target": "primary"}


def test_a_schedule_replays_identically_however_often_it_is_run():
    # A loss burst's Gilbert-Elliott model carries channel state; the
    # schedule must hand each run its own copy, or the second run starts
    # in whatever state the first one left the channel in.
    from repro.experiments.harness import run_scenario
    from repro.workload.scenarios import Scenario

    model = GilbertElliottLoss(0.3, 0.3, 0.0, 0.6)
    schedule = FaultSchedule().loss_burst(3.0, 2.0, model)
    first, second = (
        run_scenario(Scenario(horizon=8.0, seed=3),
                     fault_schedule=schedule).service.trace.digest()
        for _ in range(2))
    assert first == second
    assert not model._bad  # the schedule's own model was never stepped
