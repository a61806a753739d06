"""Unit tests for the uniform protocol interface base classes."""

import pytest

from repro.errors import ProtocolError
from repro.sim.engine import Simulator
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol, ProtocolUser, Session


def test_base_protocol_verbs_are_abstract():
    protocol = Protocol(Simulator(), "p")
    with pytest.raises(NotImplementedError):
        protocol.open(ProtocolUser(), destination=None)
    with pytest.raises(NotImplementedError):
        protocol.open_enable(ProtocolUser(), local=None)
    with pytest.raises(NotImplementedError):
        protocol.demux(Message(b""), {})


def test_protocol_user_receive_is_abstract():
    with pytest.raises(NotImplementedError):
        ProtocolUser().receive(None, Message(b""), {})


def test_protocol_receive_defaults_to_demux():
    """A protocol stacked above another receives by demuxing upward."""
    calls = []

    class Upper(Protocol):
        def demux(self, message, info):
            calls.append((message.data, info))

    upper = Upper(Simulator(), "upper")
    upper.receive(None, Message(b"xyz"), {"k": 1})
    assert calls == [(b"xyz", {"k": 1})]


def test_session_deliver_routes_to_upper():
    received = []

    class Sink(ProtocolUser):
        def receive(self, session, message, info):
            received.append((session, message.data))

    protocol = Protocol(Simulator(), "p")
    sink = Sink()
    session = Session(protocol, sink)
    session.deliver(Message(b"up"), {})
    assert received == [(session, b"up")]


def test_session_close_flags():
    session = Session(Protocol(Simulator(), "p"), ProtocolUser())
    assert not session.closed
    session.close()
    assert session.closed


def test_session_push_is_abstract():
    session = Session(Protocol(Simulator(), "p"), ProtocolUser())
    with pytest.raises(NotImplementedError):
        session.push(Message(b""))


def test_protocol_without_lower_raises_on_down():
    orphan = Protocol(Simulator(), "orphan")
    with pytest.raises(ProtocolError):
        orphan.down
