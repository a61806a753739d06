"""Tests for the window-consistent (Mehra et al.) baseline."""

import pytest

from repro.baselines.window_consistent import WindowConsistentServer
from repro.core.rtpb_protocol import RetxRequestMsg
from repro.core.server import ReplicaServer
from repro.core.service import PRIMARY_ADDRESS, RTPBService
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.metrics.summary import collect_metrics
from repro.net.link import BernoulliLoss
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def run_service(cls, seed=5, horizon=10.0, client_period=ms(100),
                n_objects=4, loss=None):
    service = RTPBService(server_class=cls, seed=seed,
                          loss_model=BernoulliLoss(loss) if loss else None)
    specs = homogeneous_specs(n_objects, window=ms(200),
                              client_period=client_period)
    service.register_all(specs)
    service.create_client(specs)
    service.run(horizon)
    return service


def test_transmissions_coupled_to_writes():
    service = run_service(WindowConsistentServer)
    writes = len(service.trace.select("primary_write"))
    sends = len(service.trace.select("update_sent"))
    # One transmission per write (a couple may be in flight at the horizon).
    assert abs(writes - sends) <= 5


def test_response_time_still_fast():
    """Coupling transmission to writes must not block the response (the
    send happens after the reply, asynchronously)."""
    service = run_service(WindowConsistentServer)
    assert collect_metrics(service, service.sim.now, 2.0).response.mean < ms(5)


def test_transmission_load_scales_with_write_rate():
    slow = run_service(WindowConsistentServer, client_period=ms(200))
    fast = run_service(WindowConsistentServer, client_period=ms(50))
    slow_sends = len(slow.trace.select("update_sent"))
    fast_sends = len(fast.trace.select("update_sent"))
    assert fast_sends > 3 * slow_sends


def test_rtpb_decoupling_caps_transmission_load():
    """The paper's motivation: under fast writers RTPB sends at the window
    rate while window-consistent sends at the write rate."""
    wc = run_service(WindowConsistentServer, client_period=ms(20),
                     horizon=8.0)
    rtpb = run_service(ReplicaServer, client_period=ms(20), horizon=8.0)
    wc_sends = len(wc.trace.select("update_sent"))
    rtpb_sends = len(rtpb.trace.select("update_sent"))
    assert rtpb_sends < wc_sends / 2


def test_no_periodic_transmission_tasks():
    service = run_service(WindowConsistentServer)
    assert service.primary_server.transmitter.object_count() == 0


def test_retransmission_requests_still_served():
    service = run_service(WindowConsistentServer, loss=0.3, horizon=15.0)
    if service.backup_server.retx_requests_sent:
        assert service.primary_server.retx_requests_served > 0


def test_window_consistent_discipline_survives_failover():
    """Every member runs the discipline, so after a failover (and the
    recruitment of a spare) transmissions still track the write rate — not
    the window-sized period of RTPB's decoupled tasks."""
    service = RTPBService(server_class=WindowConsistentServer, seed=3,
                          n_spares=1)
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(20))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    FaultInjector(service, FaultSchedule().crash(5.0, PRIMARY_ADDRESS)).arm()
    service.run(15.0)
    new_primary = service.current_primary()
    assert new_primary is service.backup_server
    assert service.current_backup() is service.spare_servers[0]
    assert new_primary.transmitter.object_count() == 0
    writes = [record for record in service.trace.select("primary_write")
              if record.time > 8.0]
    sends = [record for record in service.trace.select("update_sent")
             if record.time > 8.0]
    assert len(writes) > 1000
    assert abs(len(writes) - len(sends)) <= 5


def test_backup_ignores_retransmission_requests():
    service = run_service(WindowConsistentServer, horizon=2.0)
    backup = service.backup_server
    backup._handle_retx_request(RetxRequestMsg(object_id=0, last_seq=0),
                                service.primary_server.host.address)
    assert backup.retx_requests_served == 0
