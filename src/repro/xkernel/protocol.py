"""The x-kernel uniform protocol interface.

Every layer is a :class:`Protocol`; per-conversation state lives in
:class:`Session` objects.  The verbs mirror the x-kernel's uniform protocol
interface:

- ``open(upper, destination)`` — active open: create a session for talking
  to ``destination`` on behalf of the ``upper`` layer.
- ``open_enable(upper, local)`` — passive open: declare willingness to accept
  traffic addressed to ``local`` (e.g. a UDP port) on behalf of ``upper``.
- ``session.push(message)`` — send a message down through the session.
- ``demux(message, info)`` — receive a message from below, pop this layer's
  header, and route it to the right session / upper layer.

Uppers receive traffic through :meth:`ProtocolUser.receive`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ProtocolError
from repro.xkernel.message import Message


class ProtocolUser:
    """Interface for anything that sits on top of a protocol."""

    def receive(self, session: "Session", message: Message,
                info: Dict[str, Any]) -> None:
        """Handle a message delivered up by ``session``.

        ``info`` carries out-of-band metadata accumulated on the way up
        (source address, source port, ...), the analogue of the x-kernel's
        participant lists.  It is one dict per delivery, made by the link
        layer; each layer adds its keys to it in place.
        """
        raise NotImplementedError


class Protocol(ProtocolUser):
    """Base class for protocol objects.

    Concrete protocols override :meth:`open`, :meth:`open_enable`, and
    :meth:`demux`.  The default :meth:`receive` treats the protocol itself
    as an upper layer of the one below (protocols are both users and
    providers), forwarding to :meth:`demux`.
    """

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        #: Lower layers, filled in by :meth:`connect_below` (usually one).
        self.below: List["Protocol"] = []

    # -- composition ----------------------------------------------------

    @property
    def down(self) -> "Protocol":
        """The (single) protocol below this one."""
        if not self.below:
            raise ProtocolError(f"{self.name}: no lower protocol configured")
        return self.below[0]

    def connect_below(self, lower: "Protocol") -> None:
        self.below.append(lower)

    # -- uniform interface ----------------------------------------------

    def open(self, upper: ProtocolUser, destination: Any) -> "Session":
        raise NotImplementedError(f"{self.name} does not support open()")

    def open_enable(self, upper: ProtocolUser, local: Any) -> None:
        raise NotImplementedError(f"{self.name} does not support open_enable()")

    def demux(self, message: Message, info: Dict[str, Any]) -> None:
        raise NotImplementedError(f"{self.name} does not support demux()")

    def receive(self, session: "Session", message: Message,
                info: Dict[str, Any]) -> None:
        # A protocol stacked above another receives by demuxing further up.
        self.demux(message, info)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Session:
    """Per-conversation state created by a protocol's ``open``."""

    def __init__(self, protocol: Protocol, upper: ProtocolUser) -> None:
        self.protocol = protocol
        self.upper = upper
        self.closed = False

    def push(self, message: Message) -> None:
        """Send ``message`` down through this session."""
        raise NotImplementedError

    def deliver(self, message: Message, info: Dict[str, Any]) -> None:
        """Hand ``message`` up to this session's user."""
        self.upper.receive(self, message, info)

    def close(self) -> None:
        self.closed = True


# Imported for type checkers / docs only; avoids a hard import cycle.
from repro.sim.engine import Simulator  # noqa: E402
