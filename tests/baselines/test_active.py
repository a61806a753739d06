"""Tests for the active (state-machine) replication baseline."""

import pytest

from repro.baselines.active import ActiveReplica
from repro.core.service import RTPBService
from repro.core.spec import ServiceConfig
from repro.errors import ReplicationError
from repro.metrics.summary import collect_metrics
from repro.net.link import BernoulliLoss
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def active_service(n_replicas=2, **kwargs):
    """The sequencer plus ``n_replicas - 1`` members."""
    return RTPBService(server_class=ActiveReplica,
                       n_backups=n_replicas - 1, **kwargs)


def run_service(n_replicas=2, seed=5, loss=None, horizon=10.0):
    service = active_service(
        n_replicas=n_replicas, seed=seed,
        loss_model=BernoulliLoss(loss) if loss else None)
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(horizon)
    return service, specs


def test_needs_at_least_two_replicas():
    with pytest.raises(ReplicationError):
        active_service(n_replicas=1)


def test_every_replica_applies_every_write_in_order():
    service, specs = run_service(n_replicas=3)
    sequencer = service.primary_server
    for member in service.backup_servers:
        for spec in specs:
            member_seq = member.store.get(spec.object_id).seq
            sequencer_seq = sequencer.store.get(spec.object_id).seq
            # Members trail by at most the in-flight window (sequence
            # numbers are global across objects, so the gap spans the
            # writes of all four objects currently in flight).
            assert sequencer_seq - member_seq <= 8
        # Ordered delivery: history sequence numbers strictly increase.
        for spec in specs:
            seqs = list(member.store.get(spec.object_id).history.seqs)
            assert seqs == sorted(seqs)


def test_response_waits_for_whole_group():
    active, _ = run_service(n_replicas=2)
    rtpb = RTPBService(seed=5)
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(100))
    rtpb.register_all(specs)
    rtpb.create_client(specs)
    rtpb.run(10.0)
    active_mean = collect_metrics(active, active.sim.now, 2.0).response.mean
    rtpb_mean = collect_metrics(rtpb, rtpb.sim.now, 2.0).response.mean
    # Agreement costs at least one multicast round trip.
    assert active_mean > rtpb_mean + ms(5)


def test_more_replicas_cost_more():
    two, _ = run_service(n_replicas=2)
    four, _ = run_service(n_replicas=4)
    assert four.fabric.messages_sent > 1.5 * two.fabric.messages_sent
    assert collect_metrics(four, four.sim.now, 2.0).response.mean >= \
        collect_metrics(two, two.sim.now, 2.0).response.mean - ms(1)


def test_atomicity_under_loss():
    """Retries push every ordered write through 15% loss; no member skips
    or reorders a delivery."""
    service, specs = run_service(n_replicas=3, loss=0.15, horizon=15.0)
    issued = service.clients[0].writes_issued
    responses = len(service.trace.select("client_response"))
    assert responses >= issued - 10  # all but the in-flight tail complete
    retransmissions = service.trace.select("update_sent",
                                           retransmission=True)
    assert retransmissions
    for member in service.backup_servers:
        for spec in specs:
            seqs = list(member.store.get(spec.object_id).history.seqs)
            assert seqs == sorted(seqs)


def test_member_rejects_client_writes():
    service, specs = run_service(n_replicas=2, horizon=1.0)
    assert not service.backup_server.client_write(specs[0].object_id, b"x",
                                                  source_time=0.0)
