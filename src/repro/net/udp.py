"""UDP: the paper's transport protocol.

"The underlying transport protocol is UDP.  Since UDP does not provide
reliable delivery of messages, we need to use explicit acknowledgments when
necessary" (Section 4.1).  This implementation provides exactly that:
unreliable, unordered datagrams with ports, demultiplexed to bound upper
layers.  The RTPB layer above adds the selective reliability (backup-initiated
retransmission) the paper describes.

The header carries a real internet-checksum over the payload; corruption is
not modelled by the default fabric, but the checksum is computed and verified
so the wire format is honest and testable.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import MessageFormatError, PortInUseError
from repro.net.ip import PROTO_UDP
from repro.sim.engine import Simulator
from repro.xkernel.message import Header, Message
from repro.xkernel.protocol import Protocol, ProtocolUser, Session


class UDPHeader(Header):
    """``!HHHH`` — source port, destination port, length, checksum."""

    FORMAT = "!HHHH"
    FIELDS = ("src_port", "dst_port", "length", "checksum")


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement sum over 16-bit words, complemented.

    Takes any bytes-like object and never writes to it.  Read as one
    big-endian integer the data is a sum of ``word * 2**(16 * k)``, and
    2**16 ≡ 1 (mod 0xFFFF), so the end-around-carry sum of its words is that
    integer mod 0xFFFF.  An odd length is padded with a zero byte; residue 0
    stands for the sum 0xFFFF unless every byte is zero.
    """
    total = int.from_bytes(data, "big")
    if len(data) & 1:
        total <<= 8
    return 0xFFFF - (total % 0xFFFF or (0xFFFF if total else 0))


class UDPProtocol(Protocol):
    """Ports + checksums over IP."""

    def __init__(self, sim: Simulator, name: str = "udp") -> None:
        super().__init__(sim, name)
        self._bound: Dict[int, ProtocolUser] = {}
        self.checksum_failures = 0

    def open_enable_below(self) -> None:
        """Register with IP for protocol number 17 (called once per host)."""
        self.down.open_enable(self, PROTO_UDP)

    # -- uniform interface ----------------------------------------------

    def open(self, upper: ProtocolUser, destination: Any) -> "UDPSession":
        local_port, remote_host, remote_port = destination
        return UDPSession(self, upper, local_port, remote_host, remote_port)

    def open_enable(self, upper: ProtocolUser, local: Any) -> None:
        port = int(local)
        existing = self._bound.get(port)
        if existing is not None and existing is not upper:
            raise PortInUseError(f"UDP port {port} already bound")
        self._bound[port] = upper

    def unbind(self, port: int) -> None:
        self._bound.pop(port, None)

    def demux(self, message: Message, info: Dict[str, Any]) -> None:
        try:
            src_port, dst_port, _, checksum = UDPHeader.pop_fields(message)
        except MessageFormatError:
            self.sim.trace.record("udp_drop", reason="truncated")
            return
        if checksum != internet_checksum(message.buffer):
            self.checksum_failures += 1
            self.sim.trace.record("udp_drop", reason="checksum",
                                  dst_port=dst_port)
            return
        upper = self._bound.get(dst_port)
        if upper is None:
            self.sim.trace.record("udp_drop", reason="no-listener",
                                  dst_port=dst_port)
            return
        info["udp_src_port"] = src_port
        info["udp_dst_port"] = dst_port
        upper.receive(None, message, info)

    def send(self, local_port: int, remote_host: int, remote_port: int,
             message: Message) -> None:
        UDPHeader.push_fields(
            message, local_port, remote_port,
            min(0xFFFF, len(message.buffer) + UDPHeader.SIZE),
            internet_checksum(message.buffer))
        self.below[0].send(PROTO_UDP, remote_host, message)


class UDPSession(Session):
    """A UDP session pinned to (local port, remote host, remote port)."""

    def __init__(self, protocol: UDPProtocol, upper: ProtocolUser,
                 local_port: int, remote_host: int, remote_port: int) -> None:
        super().__init__(protocol, upper)
        self.local_port = local_port
        self.remote_host = remote_host
        self.remote_port = remote_port

    def push(self, message: Message) -> None:
        self.protocol.send(self.local_port, self.remote_host,
                           self.remote_port, message)
