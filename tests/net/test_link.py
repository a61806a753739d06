"""Unit tests for the network fabric and loss models."""

import random

import pytest

from repro.errors import NoRouteError, ProtocolError
from repro.net.link import (
    BernoulliLoss,
    GilbertElliottLoss,
    NetworkFabric,
    NoLoss,
)
from repro.sim.engine import Simulator
from repro.xkernel.message import Message


class Sink:
    def __init__(self):
        self.received = []

    def demux(self, message, info):
        self.received.append((message.data, info))


def make_pair(sim, **fabric_kwargs):
    fabric = NetworkFabric(sim, delay_bound=0.005, **fabric_kwargs)
    sender = fabric.attach(1)
    receiver = fabric.attach(2)
    sink = Sink()
    receiver.receiver = sink
    return fabric, sender, sink


def test_delivery_within_delay_bound():
    sim = Simulator(seed=1)
    fabric, sender, sink = make_pair(sim)
    for _ in range(50):
        sender.send(2, Message(b"x"))
    sim.run(until=1.0)
    assert len(sink.received) == 50
    for record in sim.trace.select("link_send"):
        assert 0.0025 <= record["delay"] <= 0.005


def test_custom_delay_min():
    sim = Simulator(seed=1)
    fabric = NetworkFabric(sim, delay_bound=0.01, delay_min=0.001)
    port = fabric.attach(1)
    sink_port = fabric.attach(2)
    sink = Sink()
    sink_port.receiver = sink
    for _ in range(30):
        port.send(2, Message(b"y"))
    sim.run(until=1.0)
    for record in sim.trace.select("link_send"):
        assert 0.001 <= record["delay"] <= 0.01


def test_no_route_raises():
    sim = Simulator()
    fabric, sender, _sink = make_pair(sim)
    with pytest.raises(NoRouteError):
        sender.send(99, Message(b"x"))


def test_duplicate_address_rejected():
    sim = Simulator()
    fabric = NetworkFabric(sim, delay_bound=0.005)
    fabric.attach(1)
    with pytest.raises(ProtocolError):
        fabric.attach(1)


def test_invalid_delay_bound_rejected():
    sim = Simulator()
    with pytest.raises(ProtocolError):
        NetworkFabric(sim, delay_bound=0.0)
    with pytest.raises(ProtocolError):
        NetworkFabric(sim, delay_bound=0.01, delay_min=0.02)


def test_bernoulli_loss_zero_and_one():
    rng = random.Random(0)
    assert not any(BernoulliLoss(0.0).drops(rng) for _ in range(100))
    assert all(BernoulliLoss(1.0).drops(rng) for _ in range(100))


def test_bernoulli_loss_rate_close_to_probability():
    rng = random.Random(42)
    model = BernoulliLoss(0.3)
    drops = sum(model.drops(rng) for _ in range(10_000))
    assert 0.27 <= drops / 10_000 <= 0.33


def test_bernoulli_loss_validation():
    with pytest.raises(ProtocolError):
        BernoulliLoss(1.5)


def test_fabric_counts_drops():
    sim = Simulator(seed=3)
    fabric, sender, sink = make_pair(sim, loss_model=BernoulliLoss(0.5))
    for _ in range(200):
        sender.send(2, Message(b"x"))
    sim.run(until=1.0)
    assert fabric.messages_sent == 200
    assert fabric.messages_dropped + fabric.messages_delivered == 200
    assert 60 <= fabric.messages_dropped <= 140
    assert len(sink.received) == fabric.messages_delivered


def test_partition_blocks_both_directions():
    sim = Simulator()
    fabric = NetworkFabric(sim, delay_bound=0.005)
    a, b = fabric.attach(1), fabric.attach(2)
    sink_a, sink_b = Sink(), Sink()
    a.receiver, b.receiver = sink_a, sink_b
    fabric.set_partition(1, 2, True)
    a.send(2, Message(b"to-b"))
    b.send(1, Message(b"to-a"))
    sim.run(until=1.0)
    assert sink_a.received == [] and sink_b.received == []
    fabric.set_partition(1, 2, False)
    a.send(2, Message(b"again"))
    sim.run(until=2.0)
    assert len(sink_b.received) == 1


def test_set_partition_is_symmetric_both_argument_orders():
    """Regression: a partition keyed (a, b) must also block (b, a), and
    healing with the arguments swapped must clear it."""
    sim = Simulator()
    fabric = NetworkFabric(sim, delay_bound=0.005)
    a, b = fabric.attach(1), fabric.attach(2)
    sink_a, sink_b = Sink(), Sink()
    a.receiver, b.receiver = sink_a, sink_b
    fabric.set_partition(2, 1, True)  # declared in (b, a) order
    assert fabric.is_partitioned(1, 2) and fabric.is_partitioned(2, 1)
    a.send(2, Message(b"x"))
    b.send(1, Message(b"y"))
    sim.run(until=1.0)
    assert sink_a.received == [] and sink_b.received == []
    fabric.set_partition(1, 2, False)  # healed in (a, b) order
    assert not fabric.is_partitioned(2, 1)
    a.send(2, Message(b"x"))
    b.send(1, Message(b"y"))
    sim.run(until=2.0)
    assert len(sink_a.received) == 1 and len(sink_b.received) == 1


def test_partition_all_and_heal_all():
    sim = Simulator()
    fabric = NetworkFabric(sim, delay_bound=0.005)
    ports = {addr: fabric.attach(addr) for addr in (1, 2, 3)}
    sinks = {addr: Sink() for addr in ports}
    for addr, port in ports.items():
        port.receiver = sinks[addr]
    fabric.partition_all()
    for src in ports:
        for dst in ports:
            if src != dst:
                assert fabric.is_partitioned(src, dst)
                ports[src].send(dst, Message(b"x"))
    sim.run(until=1.0)
    assert all(sink.received == [] for sink in sinks.values())
    fabric.heal_all()
    for src in ports:
        for dst in ports:
            if src != dst:
                assert not fabric.is_partitioned(src, dst)
    ports[1].send(2, Message(b"x"))
    ports[3].send(1, Message(b"y"))
    sim.run(until=2.0)
    assert len(sinks[2].received) == 1 and len(sinks[1].received) == 1


def test_duplication_delivers_extra_copy():
    sim = Simulator(seed=5)
    fabric, sender, sink = make_pair(sim)
    fabric.set_duplication(1.0)
    for _ in range(10):
        sender.send(2, Message(b"x"))
    sim.run(until=1.0)
    assert fabric.messages_duplicated == 10
    assert len(sink.received) == 20
    assert sim.trace.select("link_duplicate")


def test_corruption_flips_exactly_one_byte():
    sim = Simulator(seed=5)
    fabric, sender, sink = make_pair(sim)
    fabric.set_corruption(1.0)
    sender.send(2, Message(b"abcdef"))
    sim.run(until=1.0)
    assert fabric.messages_corrupted == 1
    (data, _info), = sink.received
    assert len(data) == 6
    differing = [i for i in range(6) if data[i] != b"abcdef"[i]]
    assert len(differing) == 1
    assert sim.trace.select("link_corrupt")


def test_fault_knob_validation():
    sim = Simulator()
    fabric = NetworkFabric(sim, delay_bound=0.005)
    with pytest.raises(ProtocolError):
        fabric.set_duplication(1.5)
    with pytest.raises(ProtocolError):
        fabric.set_corruption(-0.1)


def test_fault_knobs_off_do_not_perturb_delivery_schedule():
    """With duplication/corruption at zero the fabric must not consume any
    extra randomness: the delivery timeline is byte-for-byte the baseline."""
    def timeline(touch_knobs):
        sim = Simulator(seed=11)
        fabric, sender, sink = make_pair(sim)
        if touch_knobs:
            fabric.set_duplication(0.0)
            fabric.set_corruption(0.0)
        for _ in range(40):
            sender.send(2, Message(b"x"))
        sim.run(until=1.0)
        return [record.time for record in sim.trace.select("link_deliver")]

    assert timeline(touch_knobs=True) == timeline(touch_knobs=False)


def test_port_down_drops_silently():
    sim = Simulator()
    fabric, sender, sink = make_pair(sim)
    fabric._ports[2].up = False
    sender.send(2, Message(b"x"))
    sim.run(until=1.0)
    assert sink.received == []
    assert sim.trace.select("link_drop", reason="port-down")


def test_delivered_message_is_a_copy():
    sim = Simulator()
    fabric, sender, sink = make_pair(sim)
    original = Message(b"abc")
    sender.send(2, original)
    original.push(b"MUTATED")
    sim.run(until=1.0)
    assert sink.received[0][0] == b"abc"


def test_gilbert_elliott_burstiness():
    """Bad-state losses cluster: consecutive-drop runs are longer than iid."""
    rng = random.Random(7)
    model = GilbertElliottLoss(p_gb=0.05, p_bg=0.3, loss_good=0.0,
                               loss_bad=0.9)
    outcomes = [model.drops(rng) for _ in range(20_000)]
    # Count runs of consecutive drops.
    runs, current = [], 0
    for dropped in outcomes:
        if dropped:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    assert runs, "expected some losses"
    assert max(runs) >= 3  # bursts exist


def test_gilbert_elliott_validation():
    with pytest.raises(ProtocolError):
        GilbertElliottLoss(p_gb=1.5, p_bg=0.1)


def test_set_loss_model_refuses_a_non_model():
    sim = Simulator(seed=1)
    fabric, _sender, _sink = make_pair(sim)
    with pytest.raises(ProtocolError, match="not a loss model"):
        fabric.set_loss_model(0.5)
    with pytest.raises(ProtocolError, match="not a loss model"):
        make_pair(Simulator(seed=1), loss_model=0.5)
    assert isinstance(fabric.loss_model, NoLoss)


def test_a_reseed_restarts_the_fabric_draws():
    def send_twenty(sim):
        fabric, sender, _sink = make_pair(sim, loss_model=BernoulliLoss(0.3))
        for _ in range(20):
            sender.send(2, Message(b"x"))
        return fabric

    sim = Simulator(seed=1)
    fabric = send_twenty(sim)
    before = len(sim.trace.select("link_send"))
    sim.random.reseed(5)
    for _ in range(20):
        fabric.send(1, 2, Message(b"x"))
    fresh = Simulator(seed=5)
    send_twenty(fresh)
    assert ([record["delay"] for record in sim.trace.select("link_send")]
            [before:] == [record["delay"]
                          for record in fresh.trace.select("link_send")])


def test_loss_model_descriptions():
    assert NoLoss().describe() == "no-loss"
    assert "0.25" in BernoulliLoss(0.25).describe()
    assert "gilbert" in GilbertElliottLoss(0.1, 0.2).describe()
