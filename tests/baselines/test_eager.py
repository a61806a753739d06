"""Tests for the eager (synchronous) replication baseline."""

import dataclasses

import pytest

from repro.baselines.eager import EagerServer
from repro.core.rtpb_protocol import RetxRequestMsg
from repro.core.server import ReplicaServer
from repro.core.service import RTPBService
from repro.core.spec import ServiceConfig
from repro.metrics.summary import collect_metrics
from repro.net.link import BernoulliLoss
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def run_service(cls, seed=5, loss=None, horizon=10.0, **kwargs):
    if loss and "config" not in kwargs:
        # Loss-tolerant heartbeat: keep the failure detector from
        # false-triggering during loss tests.
        kwargs["config"] = ServiceConfig(ping_max_misses=40)
    service = RTPBService(server_class=cls, seed=seed,
                          loss_model=BernoulliLoss(loss) if loss else None,
                          **kwargs)
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(horizon)
    return service


def test_eager_response_includes_round_trip():
    eager = run_service(EagerServer)
    rtpb = run_service(ReplicaServer)
    eager_mean = collect_metrics(eager, eager.sim.now, 2.0).response.mean
    rtpb_mean = collect_metrics(rtpb, rtpb.sim.now, 2.0).response.mean
    # Eager pays tx cost + one-way delay + apply + ack delay; RTPB only the
    # local RPC.  The gap must be at least one ell (5 ms).
    assert eager_mean > rtpb_mean + ms(5)


def test_eager_acks_complete_every_write():
    service = run_service(EagerServer)
    issued = service.clients[0].writes_issued
    responses = len(service.trace.select("client_response"))
    # A handful may be in flight at the horizon.
    assert responses >= issued - 5


def test_eager_retries_through_loss():
    service = run_service(EagerServer, loss=0.2, horizon=15.0)
    primary = service.primary_server
    assert primary.sync_retransmissions > 0
    issued = service.clients[0].writes_issued
    responses = len(service.trace.select("client_response"))
    assert responses >= issued * 0.9


def test_eager_keeps_backup_equally_fresh():
    eager = run_service(EagerServer)
    rtpb = run_service(ReplicaServer)
    # Eager pushes on every write: its primary/backup distance cannot exceed
    # RTPB's (which waits for the periodic task).
    assert collect_metrics(eager, 10.0, 2.0).avg_max_distance <= \
        collect_metrics(rtpb, 10.0, 2.0).avg_max_distance + 1e-9


def test_eager_has_no_periodic_transmission_tasks():
    service = run_service(EagerServer)
    assert service.primary_server.transmitter.object_count() == 0


def test_eager_discipline_survives_failover():
    """Every member runs the discipline, so the backup promoted at failover
    still waits for the (recruited) backup's ack on every write."""
    service = RTPBService(server_class=EagerServer, seed=3, n_spares=1)
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    service.injector.crash_at(5.0, service.primary_server)
    service.run(15.0)
    assert service.current_primary() is service.backup_server
    assert service.current_backup() is service.spare_servers[0]
    late = [record["response"]
            for record in service.trace.select("client_response")
            if record["issue"] > 8.0]
    assert len(late) > 100
    assert sum(late) / len(late) > service.config.ell


def test_building_a_service_leaves_the_config_alone():
    """The discipline declares its need for acks; the caller's config is
    never written to, so an RTPB service built next from it acks nothing."""
    config = ServiceConfig()
    before = dataclasses.asdict(config)
    eager = run_service(EagerServer, config=config, horizon=3.0)
    rtpb = run_service(ReplicaServer, config=config, horizon=3.0)
    assert dataclasses.asdict(config) == before
    assert eager.trace.select("client_response")  # acks did flow for eager
    assert rtpb.trace.select("backup_apply")
    assert not rtpb.trace.select("update_ack")


def test_backup_ignores_retransmission_requests():
    service = run_service(EagerServer, horizon=2.0)
    backup = service.backup_server
    backup._handle_retx_request(RetxRequestMsg(object_id=0, last_seq=0),
                                service.primary_server.host.address)
    assert backup.retx_requests_served == 0
    assert not backup._pending_acks
