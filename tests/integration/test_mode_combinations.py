"""Cross-feature combinations: modes and extensions compose."""

import pytest

from repro.baselines import MultiBackupServer
from repro.core.service import RTPBService
from repro.core.spec import SchedulingMode, ServiceConfig
from repro.units import ms
from repro.workload.generator import homogeneous_specs
from repro.workload.scenarios import Scenario, build_scenario


def test_scenario_supports_dcs_mode():
    scenario = Scenario(n_objects=4, scheduling_mode=SchedulingMode.DCS,
                        horizon=5.0, seed=2)
    service = build_scenario(scenario)
    service.run(5.0)
    for spec in service.registered_specs():
        assert service.backup_server.store.get(spec.object_id).seq > 10


def test_multibackup_with_dcs_transmission():
    config = ServiceConfig(scheduling_mode=SchedulingMode.DCS)
    service = RTPBService(server_class=MultiBackupServer, n_backups=2,
                          seed=3, config=config)
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(6.0)
    for backup in service.backup_servers:
        for spec in specs:
            assert backup.store.get(spec.object_id).seq > 10


def test_multibackup_with_compressed_transmission():
    config = ServiceConfig(scheduling_mode=SchedulingMode.COMPRESSED)
    service = RTPBService(server_class=MultiBackupServer, n_backups=2,
                          seed=3, config=config)
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(4.0)
    # Compressed fan-out: every backup drinks from the firehose.
    for backup in service.backup_servers:
        assert backup.updates_applied > 100


def test_deferrable_server_with_rm_scheduler():
    config = ServiceConfig(use_deferrable_server=True, cpu_scheduler="rm")
    # Build directly (Scenario doesn't carry these config fields).
    service = RTPBService(seed=2, config=config)
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(5.0)
    from repro.metrics.summary import collect_metrics

    stats = collect_metrics(service, service.sim.now, 1.0).response
    assert stats.count > 100
    # DS jobs run at real-time priority even under RM (explicit deadline).
    assert stats.mean < ms(10)


def test_backup_reads_with_compressed_mode():
    config = ServiceConfig(scheduling_mode=SchedulingMode.COMPRESSED,
                           backup_reads_enabled=True)
    service = RTPBService(seed=2, config=config)
    specs = homogeneous_specs(2, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    results = []
    service.sim.schedule(3.0, lambda: service.backup_server.client_read(
        0, on_complete=lambda v, s, r: results.append(s)))
    service.run(4.0)
    assert results
    # Compressed mode keeps the backup extremely fresh.
    assert results[0] < ms(150)
