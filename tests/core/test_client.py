"""Unit tests for the sensing client application."""

import pytest

from repro.core.service import BACKUP_ADDRESS, PRIMARY_ADDRESS, RTPBService
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.units import ms
from repro.workload.generator import homogeneous_specs, spec_for_window


def test_client_writes_at_configured_rate():
    service = RTPBService(seed=1)
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    service.register(spec)
    client = service.create_client([spec], write_jitter=0.0)
    service.run(10.0)
    # ~100 writes in 10 s at 100 ms period (minus the initial phase).
    assert 95 <= client.writes_issued <= 101
    assert client.writes_refused == 0


def test_client_jitter_perturbs_but_preserves_rate():
    service = RTPBService(seed=1)
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    service.register(spec)
    client = service.create_client([spec], write_jitter=ms(10))
    service.run(10.0)
    assert 90 <= client.writes_issued <= 110
    writes = service.trace.select("primary_write", object=0)
    gaps = [b.time - a.time for a, b in zip(writes, writes[1:])]
    assert any(abs(gap - 0.1) > 1e-6 for gap in gaps)


def test_client_writes_all_its_objects():
    service = RTPBService(seed=2)
    specs = homogeneous_specs(5, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(3.0)
    for spec in specs:
        assert service.trace.select("primary_write",
                                    object=spec.object_id)


def test_inactive_client_does_not_write():
    service = RTPBService(seed=3)
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    service.register(spec)
    client = service.create_client([spec])
    client.active = False
    service.run(3.0)
    assert client.writes_issued == 0


def test_activate_resumes_writing():
    service = RTPBService(seed=3)
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    service.register(spec)
    client = service.create_client([spec])
    client.active = False
    service.start()
    service.sim.schedule(2.0, client.activate, service.primary_server)
    service.run(5.0)
    assert client.writes_issued > 20


def test_writes_refused_while_no_live_primary():
    service = RTPBService(seed=4)
    spec = spec_for_window(0, window=ms(200), client_period=ms(100))
    service.register(spec)
    client = service.create_client([spec])
    service.start()
    FaultInjector(service, FaultSchedule()
                  .crash(2.0, PRIMARY_ADDRESS)
                  .crash(2.0, BACKUP_ADDRESS)).arm()
    service.run(6.0)
    assert client.writes_refused > 20
