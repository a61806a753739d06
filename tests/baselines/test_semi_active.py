"""Tests for the hybrid (semi-active) replication scheme."""

import pytest

from repro.baselines.active import ActiveReplica, SemiActiveReplica
from repro.core.service import RTPBService
from repro.metrics.summary import collect_metrics
from repro.net.link import BernoulliLoss
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def run_service(cls, seed=5, loss=None, horizon=10.0):
    from repro.core.spec import ServiceConfig

    kwargs = {}
    if loss:
        kwargs["config"] = ServiceConfig(ping_max_misses=40)
    service = RTPBService(server_class=cls, seed=seed,
                          loss_model=BernoulliLoss(loss) if loss else None,
                          **kwargs)
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(horizon)
    return service, specs


def test_semi_active_responds_at_passive_speed():
    semi, _ = run_service(SemiActiveReplica)
    active, _ = run_service(ActiveReplica)
    semi_mean = collect_metrics(semi, semi.sim.now, 2.0).response.mean
    active_mean = collect_metrics(active, active.sim.now, 2.0).response.mean
    # Semi-active answers after the local apply: no agreement round trip.
    assert semi_mean < ms(2.0)
    assert active_mean > 5 * semi_mean


def test_semi_active_still_delivers_everything_in_order():
    service, specs = run_service(SemiActiveReplica, loss=0.15,
                                 horizon=15.0)
    for member in service.backup_servers:
        for spec in specs:
            seqs = list(member.store.get(spec.object_id).history.seqs)
            assert seqs == sorted(seqs)
            # Retries delivered the stream despite 15% loss: the member
            # tracks the sequencer closely.
            sequencer_seq = service.primary_server.store.get(
                spec.object_id).seq
            assert sequencer_seq - member.store.get(spec.object_id).seq <= 10


def test_semi_active_responses_not_duplicated():
    """Each write gets exactly one response (the ack path must not answer
    a second time)."""
    service, _specs = run_service(SemiActiveReplica)
    issued = service.clients[0].writes_issued
    responses = len(service.trace.select("client_response"))
    assert responses <= issued
    assert responses >= issued - 3  # in-flight tail only
