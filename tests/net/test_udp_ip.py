"""Integration tests for the UDP/IP stack over the fabric."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PortInUseError
from repro.net.ip import Host, IPHeader
from repro.net.link import NetworkFabric
from repro.net.udp import UDPHeader, internet_checksum
from repro.sim.engine import Simulator
from repro.xkernel.message import Message


def make_hosts(seed=0):
    sim = Simulator(seed=seed)
    fabric = NetworkFabric(sim, delay_bound=0.005)
    return sim, fabric, Host(sim, fabric, "h1", 1), Host(sim, fabric, "h2", 2)


def test_datagram_end_to_end():
    sim, fabric, h1, h2 = make_hosts()
    got = []
    h2.udp_endpoint(9000, on_receive=lambda data, src, info: got.append(
        (data, src)))
    sender = h1.udp_endpoint(8000)
    sender.send(2, 9000, b"hello")
    sim.run(until=1.0)
    assert got == [(b"hello", (1, 8000))]


def test_port_demultiplexing():
    sim, fabric, h1, h2 = make_hosts()
    inbox_a, inbox_b = [], []
    h2.udp_endpoint(7001, on_receive=lambda d, s, i: inbox_a.append(d))
    h2.udp_endpoint(7002, on_receive=lambda d, s, i: inbox_b.append(d))
    sender = h1.udp_endpoint(8000)
    sender.send(2, 7001, b"for-a")
    sender.send(2, 7002, b"for-b")
    sender.send(2, 7002, b"also-b")
    sim.run(until=1.0)
    assert inbox_a == [b"for-a"]
    assert sorted(inbox_b) == [b"also-b", b"for-b"]


def test_unbound_port_dropped_with_trace():
    sim, fabric, h1, h2 = make_hosts()
    h1.udp_endpoint(8000).send(2, 4444, b"nobody-home")
    sim.run(until=1.0)
    assert sim.trace.select("udp_drop", reason="no-listener")


def test_port_in_use_rejected():
    sim, fabric, h1, _h2 = make_hosts()
    h1.udp_endpoint(8000)
    with pytest.raises(PortInUseError):
        h1.udp_endpoint(8000)


def test_close_releases_port():
    sim, fabric, h1, _h2 = make_hosts()
    endpoint = h1.udp_endpoint(8000)
    endpoint.close()
    h1.udp_endpoint(8000)  # rebind succeeds


def test_wrong_host_dropped_at_ip():
    sim, fabric, h1, h2 = make_hosts()
    # Hand-craft a datagram addressed to host 9 but deliver it to host 2.
    message = Message(b"payload")
    UDPHeader(src_port=1, dst_port=2, length=0,
              checksum=internet_checksum(b"payload")).push_onto(message)
    IPHeader(src=1, dst=9, proto=17, length=len(message)).push_onto(message)
    h2.ip.demux(message, {})
    assert sim.trace.select("ip_drop", reason="wrong-host")


def test_corrupted_checksum_dropped():
    sim, fabric, h1, h2 = make_hosts()
    got = []
    h2.udp_endpoint(9000, on_receive=lambda d, s, i: got.append(d))
    message = Message(b"payload")
    UDPHeader(src_port=8000, dst_port=9000, length=0,
              checksum=0xBEEF).push_onto(message)  # wrong checksum
    IPHeader(src=1, dst=2, proto=17, length=len(message)).push_onto(message)
    h1.port.send(2, message)
    sim.run(until=1.0)
    assert got == []
    assert h2.udp.checksum_failures == 1


def test_checksum_rfc1071_known_values():
    assert internet_checksum(b"") == 0xFFFF
    assert internet_checksum(b"\x00\x00") == 0xFFFF
    # Odd length is zero-padded.
    assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")
    data = b"hello world"
    assert internet_checksum(data) == internet_checksum(data)


def rfc1071_reference(data):
    """The word-at-a-time loop of RFC 1071, folding after every addition."""
    data = bytes(data)
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for index in range(0, len(data), 2):
        total += (data[index] << 8) | data[index + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@given(st.binary(max_size=4096))
@example(b"")
@example(b"\x7f")
@example(b"\xff" * 2048)
@example(b"\xff" * 2049)
@example(b"\xff\xff\x00\x01")
@example(bytes(range(256)) * 9 + b"\x01")
@settings(max_examples=300, deadline=None)
def test_checksum_equals_rfc1071_word_loop(data):
    assert internet_checksum(data) == rfc1071_reference(data)


def test_checksum_accepts_bytes_likes_and_never_writes_to_them():
    odd = bytearray(b"\x12\x34\x56")
    expected = rfc1071_reference(odd)
    assert internet_checksum(odd) == expected
    assert odd == bytearray(b"\x12\x34\x56")  # was extended in place once
    assert internet_checksum(memoryview(bytes(odd))) == expected
    assert internet_checksum(bytes(odd)) == expected


def test_checksum_verifies_to_zero_when_appended():
    # The receiver-side identity: data followed by its checksum sums to 0.
    data = b"even length payload!"
    check = internet_checksum(data)
    assert internet_checksum(data + check.to_bytes(2, "big")) == 0


def test_counters():
    sim, fabric, h1, h2 = make_hosts()
    receiver = h2.udp_endpoint(9000, on_receive=lambda d, s, i: None)
    sender = h1.udp_endpoint(8000)
    for _ in range(5):
        sender.send(2, 9000, b"x")
    sim.run(until=1.0)
    assert sender.datagrams_sent == 5
    assert receiver.datagrams_received == 5


def test_host_fail_and_recover():
    sim, fabric, h1, h2 = make_hosts()
    got = []
    h2.udp_endpoint(9000, on_receive=lambda d, s, i: got.append(d))
    sender = h1.udp_endpoint(8000)
    h2.fail()
    sender.send(2, 9000, b"lost")
    sim.run(until=0.5)
    assert got == []
    h2.recover()
    sender.send(2, 9000, b"found")
    sim.run(until=1.0)
    assert got == [b"found"]


def test_bidirectional_traffic():
    sim, fabric, h1, h2 = make_hosts()
    inbox1, inbox2 = [], []
    ep1 = h1.udp_endpoint(5000, on_receive=lambda d, s, i: inbox1.append(d))
    ep2 = h2.udp_endpoint(5000, on_receive=lambda d, s, i: inbox2.append(d))
    ep1.send(2, 5000, b"ping")
    sim.run(until=0.1)
    ep2.send(1, 5000, b"pong")
    sim.run(until=1.0)
    assert inbox2 == [b"ping"]
    assert inbox1 == [b"pong"]


def test_large_payload_round_trip():
    sim, fabric, h1, h2 = make_hosts()
    got = []
    h2.udp_endpoint(9000, on_receive=lambda d, s, i: got.append(d))
    payload = bytes(range(256)) * 16  # 4 KiB
    h1.udp_endpoint(8000).send(2, 9000, payload)
    sim.run(until=1.0)
    assert got == [payload]
