"""Characterising UDP reordering over the fabric (and surviving it)."""

from repro.net.ip import Host
from repro.net.link import NetworkFabric
from repro.sim.engine import Simulator


def test_fabric_reorders_closely_spaced_datagrams():
    """Random per-message delays mean later sends can arrive earlier —
    the property the RTPB sequence-number guard exists for."""
    sim = Simulator(seed=3)
    fabric = NetworkFabric(sim, delay_bound=0.005, delay_min=0.0005)
    sender_host = Host(sim, fabric, "a", 1)
    receiver_host = Host(sim, fabric, "b", 2)
    received = []
    receiver_host.udp_endpoint(
        9000, on_receive=lambda data, src, info: received.append(
            int.from_bytes(data, "big")))
    endpoint = sender_host.udp_endpoint(8000)
    for index in range(200):
        sim.schedule(index * 0.0002,
                     endpoint.send, 2, 9000, index.to_bytes(4, "big"))
    sim.run(until=1.0)
    assert len(received) == 200
    assert received != sorted(received), "expected at least one inversion"


def test_backup_state_monotonic_despite_reordering():
    """End-to-end: with sub-delay write spacing the update stream arrives
    reordered, but the backup's applied history never steps backwards."""
    from repro.core.service import RTPBService
    from repro.core.spec import ServiceConfig
    from repro.units import ms
    from repro.workload.generator import spec_for_window

    # Writers at 4 ms < delay bound 5 ms: heavy reordering pressure.
    config = ServiceConfig(ell=ms(5.0))
    service = RTPBService(seed=3, config=config)
    spec = spec_for_window(0, window=ms(60), client_period=ms(4.0))
    assert service.register(spec).accepted
    service.create_client([spec])
    service.run(5.0)
    history = service.backup_server.store.get(0).history
    seqs = list(history.seqs)
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    assert service.backup_server.updates_stale >= 0  # counter exists
