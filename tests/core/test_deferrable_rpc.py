"""Client RPCs through the deferrable-server reservation."""

import pytest

from repro.core.service import RTPBService
from repro.core.spec import ServiceConfig
from repro.errors import ReplicationError
from repro.metrics.summary import collect_metrics
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def test_config_validation():
    with pytest.raises(ReplicationError):
        ServiceConfig(use_deferrable_server=True, ds_budget=ms(60),
                      ds_period=ms(50))


def test_server_instantiated_when_configured():
    service = RTPBService(config=ServiceConfig(use_deferrable_server=True))
    assert service.primary_server.deferrable_server is not None
    plain = RTPBService()
    assert plain.primary_server.deferrable_server is None


def test_reservation_charged_to_admission():
    config = ServiceConfig(use_deferrable_server=True, ds_budget=ms(5),
                           ds_period=ms(50))
    with_ds = RTPBService(config=config)
    without = RTPBService()

    def capacity(service):
        count = 0
        for spec in homogeneous_specs(200, window=ms(60),
                                      client_period=ms(50)):
            if not service.register(spec).accepted:
                break
            count += 1
        return count

    # The 10% reservation eats into update-task capacity.
    assert capacity(with_ds) < capacity(without)


def test_writes_flow_normally_through_reservation():
    config = ServiceConfig(use_deferrable_server=True)
    service = RTPBService(seed=4, config=config)
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(6.0)
    stats = collect_metrics(service, service.sim.now, 1.0).response
    assert stats.count > 150
    assert stats.mean < ms(10)
    assert collect_metrics(service, service.sim.now).starved_writes <= 2
    for spec in specs:
        assert service.backup_server.store.get(spec.object_id).seq > 20


def test_reservation_bounds_rpc_demand_under_client_overload():
    """A misbehaving flood of client writes cannot exceed the reservation:
    update tasks keep every deadline."""
    config = ServiceConfig(use_deferrable_server=True, ds_budget=ms(5),
                           ds_period=ms(50))
    service = RTPBService(seed=4, config=config)
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.start()

    def flood():
        for spec in specs:
            service.primary_server.client_write(
                spec.object_id, b"x" * 64, source_time=service.sim.now)

    for step in range(2000):  # 400 writes/s: ~2x the 5ms/50ms reservation
        service.sim.schedule(0.005 * step, flood)
    service.run(10.0)
    assert service.primary_server.processor.deadline_misses == 0
    # The flood saturated the reservation: some writes were deferred.
    assert service.primary_server.deferrable_server.jobs_deferred > 0
