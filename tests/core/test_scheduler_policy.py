"""Run-time CPU scheduling policy (config.cpu_scheduler)."""

import math

import pytest

from repro.core.service import RTPBService
from repro.core.spec import ServiceConfig
from repro.errors import ReplicationError
from repro.metrics.summary import collect_metrics
from repro.sched.edf import EDFScheduler
from repro.sched.rm import RateMonotonicScheduler
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def run_overloaded(policy):
    config = ServiceConfig(cpu_scheduler=policy, admission_enabled=False)
    service = RTPBService(config=config, seed=8)
    specs = homogeneous_specs(60, window=ms(100), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(6.0)
    return service


def test_config_selects_scheduler_class():
    edf = RTPBService(config=ServiceConfig(cpu_scheduler="edf"))
    rm = RTPBService(config=ServiceConfig(cpu_scheduler="rm"))
    assert isinstance(edf.primary_server.processor.scheduler, EDFScheduler)
    assert isinstance(rm.primary_server.processor.scheduler,
                      RateMonotonicScheduler)


def test_invalid_policy_rejected():
    with pytest.raises(ReplicationError):
        ServiceConfig(cpu_scheduler="lottery")


def test_rm_starves_aperiodics_under_overload_edf_does_not():
    """The classical fixed-priority pathology: with periodic update tasks
    saturating the CPU, RM (aperiodics below all periodics) never serves a
    client RPC, while EDF shares the overload."""
    edf = run_overloaded("edf")
    rm = run_overloaded("rm")
    assert collect_metrics(edf, edf.sim.now, 2.0).response.count > 1000
    assert collect_metrics(rm, rm.sim.now).starved_writes > 0.9 * sum(
        client.writes_issued for client in rm.clients)


def test_policies_agree_at_moderate_load():
    """Below the point where RPC deadlines overtake update deadlines, the
    two policies make the same dispatch decisions."""
    results = {}
    for policy in ("edf", "rm"):
        config = ServiceConfig(cpu_scheduler=policy)
        service = RTPBService(config=config, seed=8)
        specs = homogeneous_specs(16, window=ms(100), client_period=ms(100))
        service.register_all(specs)
        service.create_client(specs)
        service.run(6.0)
        results[policy] = collect_metrics(service, service.sim.now, 2.0).response
    assert results["edf"].mean == pytest.approx(results["rm"].mean,
                                                rel=0.05)
