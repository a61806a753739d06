"""Datagram endpoints: the convenience layer servers actually use.

A :class:`UdpEndpoint` binds one UDP port on one host and exposes
callback-style ``send``/``on_receive``, hiding session bookkeeping.  The
RTPB servers each own a handful of these (update channel, ping channel,
control channel).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.xkernel.message import Message
from repro.xkernel.protocol import ProtocolUser, Session

#: Receive callback: (payload bytes, source (host, port), info dict).
ReceiveHandler = Callable[[bytes, Tuple[int, int], Dict[str, Any]], None]


class UdpEndpoint(ProtocolUser):
    """A bound UDP port with a plain-callback receive interface."""

    def __init__(self, host: "Host", port: int,
                 on_receive: Optional[ReceiveHandler] = None) -> None:
        self.host = host
        self.port = port
        self.on_receive = on_receive
        self.datagrams_sent = 0
        self.datagrams_received = 0
        host.udp.open_enable(self, port)
        self._sessions: Dict[Tuple[int, int], Session] = {}

    def send(self, remote_host: int, remote_port: int, payload: bytes) -> None:
        """Send one datagram (fire-and-forget, as UDP is)."""
        key = (remote_host, remote_port)
        session = self._sessions.get(key)
        if session is None:
            session = self.host.udp.open(
                self, (self.port, remote_host, remote_port))
            self._sessions[key] = session
        self.datagrams_sent += 1
        session.push(Message(payload))

    def receive(self, session: Optional[Session], message: Message,
                info: Dict[str, Any]) -> None:
        self.datagrams_received += 1
        if self.on_receive is None:
            return
        source = (info.get("ip_src", -1), info.get("udp_src_port", -1))
        self.on_receive(bytes(message.buffer), source, info)

    def close(self) -> None:
        """Release the port binding."""
        self.host.udp.unbind(self.port)


from repro.net.ip import Host  # noqa: E402  (typing only)
