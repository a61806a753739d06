"""Minimal IP-like network layer and the Host abstraction.

IP here is deliberately small — one LAN segment, no fragmentation, no
routing tables — because the paper's testbed is two or three machines on one
Ethernet.  What it does provide is real: a header with source/destination
host addresses and an upper-protocol number, byte-encoded and popped on
receive, so the stack composes exactly like the paper's Figure 5
(RTPB / UDP / IP / link).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import MessageFormatError, ProtocolError
from repro.net.link import LinkPort, NetworkFabric
from repro.sim.engine import Simulator
from repro.xkernel.message import Header, Message
from repro.xkernel.protocol import Protocol, ProtocolUser, Session

#: IP protocol number for UDP, kept for verisimilitude.
PROTO_UDP = 17


class IPHeader(Header):
    """``!IIBxH`` — src addr, dst addr, protocol number, pad, total length."""

    FORMAT = "!IIBxH"
    FIELDS = ("src", "dst", "proto", "length")


class IPProtocol(Protocol):
    """Network layer: stamps host addresses, demuxes by protocol number."""

    def __init__(self, sim: Simulator, name: str, port: LinkPort) -> None:
        super().__init__(sim, name)
        self.port = port
        port.receiver = self
        self.local_address = port.address
        self._uppers: Dict[int, ProtocolUser] = {}

    def open(self, upper: ProtocolUser, destination: Any) -> "IPSession":
        proto, remote = destination
        return IPSession(self, upper, proto, remote)

    def open_enable(self, upper: ProtocolUser, local: Any) -> None:
        proto = int(local)
        existing = self._uppers.get(proto)
        if existing is not None and existing is not upper:
            raise ProtocolError(
                f"IP protocol number {proto} already enabled")
        self._uppers[proto] = upper

    def demux(self, message: Message, info: Dict[str, Any]) -> None:
        try:
            src, dst, proto, _length = IPHeader.pop_fields(message)
        except MessageFormatError:
            self.sim.trace.record("ip_drop", reason="truncated")
            return
        if dst != self.local_address:
            self.sim.trace.record("ip_drop", reason="wrong-host",
                                  dst=dst, local=self.local_address)
            return
        upper = self._uppers.get(proto)
        if upper is None:
            self.sim.trace.record("ip_drop", reason="no-upper",
                                  proto=proto)
            return
        info["ip_src"] = src
        info["ip_dst"] = dst
        upper.receive(None, message, info)

    def send(self, proto: int, remote: int, message: Message) -> None:
        IPHeader.push_fields(
            message, self.local_address, remote, proto,
            min(0xFFFF, len(message.buffer) + IPHeader.SIZE))
        self.port.send(remote, message)


class IPSession(Session):
    """An IP session pinned to one (protocol number, remote host) pair."""

    def __init__(self, protocol: IPProtocol, upper: ProtocolUser,
                 proto: int, remote: int) -> None:
        super().__init__(protocol, upper)
        self.proto = proto
        self.remote = remote

    def push(self, message: Message) -> None:
        self.protocol.send(self.proto, self.remote, message)


class Host:
    """One machine: a fabric attachment plus its protocol stack.

    The constructor assembles the paper's Figure 5 stack below the RTPB
    layer — UDP on IP on the link port; higher layers (the RTPB protocol,
    endpoints) are added by the replication service.
    """

    def __init__(self, sim: Simulator, fabric: NetworkFabric, name: str,
                 address: int) -> None:
        from repro.net.udp import UDPProtocol  # local import: layering

        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.address = address
        self.port = fabric.attach(address)
        self.ip = IPProtocol(sim, "ip", self.port)
        self.udp = UDPProtocol(sim, "udp")
        self.udp.connect_below(self.ip)
        self.udp.open_enable_below()

    def udp_endpoint(self, port: int,
                     on_receive: Optional[Callable] = None) -> "UdpEndpoint":
        """Convenience: bind a UDP port and get a send/receive endpoint."""
        from repro.net.transport import UdpEndpoint

        return UdpEndpoint(self, port, on_receive=on_receive)

    def fail(self) -> None:
        """Crash the host: its NIC stops accepting traffic (crash failure)."""
        self.port.up = False

    def recover(self) -> None:
        """Bring the NIC back up (used when integrating a new backup host)."""
        self.port.up = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} addr={self.address}>"
