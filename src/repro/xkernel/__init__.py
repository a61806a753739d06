"""x-kernel-style protocol framework.

The paper's prototype is built inside the x-kernel [Hutchinson & Peterson
1991]: protocols are objects stacked one on another, messages carry a
header *stack* that each layer pushes onto on the way down and pops on the
way up, and layers talk through a small uniform interface (open / demux /
push / pop).

This subpackage reproduces that architecture:

- :class:`~repro.xkernel.message.Message` — byte buffer with push/pop header
  discipline, plus :class:`~repro.xkernel.message.Header` codecs.
- :class:`~repro.xkernel.protocol.Protocol` /
  :class:`~repro.xkernel.protocol.Session` — the uniform protocol interface.

Each :class:`~repro.net.ip.Host` stacks its own UDP on its IP; servers and
replicas sit on top through :class:`~repro.net.transport.UdpEndpoint`.
"""

from repro.xkernel.message import Header, Message
from repro.xkernel.protocol import Protocol, ProtocolUser, Session

__all__ = [
    "Message",
    "Header",
    "Protocol",
    "Session",
    "ProtocolUser",
]
