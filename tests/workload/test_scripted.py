"""Unit tests for the trace-driven (scripted) client."""

import pytest

from repro.core.service import BACKUP_ADDRESS, PRIMARY_ADDRESS, RTPBService
from repro.errors import ReplicationError
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.units import ms
from repro.workload.generator import spec_for_window
from repro.workload.scripted import ScriptedClient, periodic_schedule


def make_service():
    service = RTPBService(seed=2)
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    service.register(spec)
    return service, spec


def attach(service, schedule):
    client = ScriptedClient(
        service.sim, service.environment, service.name_service, "rtpb",
        resolver=service.resolve_server, schedule=schedule)
    return client


def test_writes_land_at_exact_instants():
    service, _spec = make_service()
    client = attach(service, [(1.0, 0), (1.5, 0), (3.25, 0)])
    service.start()
    client.start()
    service.run(5.0)
    writes = service.trace.select("primary_write", object=0)
    issue_times = sorted(record["source_time"] for record in writes)
    assert issue_times == pytest.approx([1.0, 1.5, 3.25])
    assert client.writes_issued == 3


def test_past_event_rejected():
    service, _spec = make_service()
    service.run(2.0)
    with pytest.raises(ReplicationError):
        attach(service, [(1.0, 0)])


def test_unregistered_object_refused_not_crashed():
    service, _spec = make_service()
    client = attach(service, [(1.0, 42)])
    service.start()
    client.start()
    service.run(2.0)
    assert client.writes_refused == 1
    assert client.writes_issued == 0


def test_writes_refused_when_primary_dead():
    service, _spec = make_service()
    client = attach(service, [(3.0, 0)])
    service.start()
    client.start()
    FaultInjector(service, FaultSchedule()
                  .crash(1.0, PRIMARY_ADDRESS)
                  .crash(1.0, BACKUP_ADDRESS)).arm()
    service.run(4.0)
    assert client.writes_refused == 1


def test_periodic_schedule_helper():
    events = periodic_schedule(7, period=0.5, start=1.0, end=3.0)
    assert events == [(1.0, 7), (1.5, 7), (2.0, 7), (2.5, 7)]
    offset = periodic_schedule(7, period=0.5, start=1.0, end=2.0,
                               offset=0.25)
    assert offset == [(1.25, 7), (1.75, 7)]
    with pytest.raises(ReplicationError):
        periodic_schedule(0, period=0.0, start=0.0, end=1.0)


def test_schedule_is_sorted_internally():
    service, _spec = make_service()
    client = attach(service, [(2.0, 0), (1.0, 0)])
    service.start()
    client.start()
    service.run(3.0)
    assert client.writes_issued == 2
