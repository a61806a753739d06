"""Failure detection (Section 4.4).

"Both the primary and the backup have a 'ping' thread which sends periodic
messages to the other server.  Each server acknowledges the 'ping' message
from the other one.  If a server receives no acknowledgment over some time,
it will timeout and resend a 'ping' message.  If there is no response beyond
a certain amount of time, the server will declare the other end dead."

:class:`PingManager` is that thread for one side; it is symmetric, so each
replica runs one.  The crashes it detects are scripted as
:class:`~repro.faults.schedule.FaultSchedule` entries (``crash``,
``recover``, ``crash_cycle``) armed by a
:class:`~repro.faults.injector.FaultInjector`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.rtpb_protocol import PingAckMsg, PingMsg, encode_message
from repro.core.spec import ServiceConfig
from repro.sim.engine import Simulator
from repro.sim.events import Event

#: Sends an encoded RTPB message to the peer.
SendFn = Callable[[bytes], None]


class PingManager:
    """One side of the bidirectional heartbeat.

    Protocol per round: send ``PING(seq)``; if no ``PING_ACK(seq)`` arrives
    within ``ping_timeout``, count a miss and resend immediately; after
    ``ping_max_misses`` consecutive misses declare the peer dead and invoke
    ``on_peer_dead``.  A successful ack resets the miss count and schedules
    the next round one ``ping_period`` later.
    """

    def __init__(self, sim: Simulator, config: ServiceConfig, role: int,
                 send: SendFn, on_peer_dead: Callable[[], None],
                 name: str = "ping") -> None:
        self.sim = sim
        self.config = config
        self.role = role
        self.send = send
        self.on_peer_dead = on_peer_dead
        self.name = name
        #: Local timer drift: virtual delays are multiplied by this factor
        #: (>1 = a slow clock pings late, <1 = a fast clock pings early).
        #: The fault subsystem's clock-drift injector sets it; 1.0 is a
        #: perfect clock.
        self.clock_scale = 1.0
        self.peer_alive = True
        self.pings_sent = 0
        self.acks_received = 0
        self.misses = 0
        self._running = False
        self._seq = 0
        self._acked_seq = -1
        self._timer: Optional[Event] = None

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin (or restart, after recruitment) the heartbeat rounds."""
        if self._running:
            return
        self._running = True
        self.peer_alive = True
        self.misses = 0
        self._send_ping()

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------

    def handle_ack(self, ack: PingAckMsg) -> None:
        """Feed an incoming ``PING_ACK`` (the server demuxes to us)."""
        self.acks_received += 1
        if ack.seq > self._acked_seq:
            self._acked_seq = ack.seq

    def make_ack(self, ping: PingMsg) -> bytes:
        """Build the ack for a peer's ping (responder side)."""
        return encode_message(PingAckMsg(seq=ping.seq,
                                         echo_send_time=ping.send_time,
                                         ack_time=self.sim.now))

    # ------------------------------------------------------------------

    def _send_ping(self) -> None:
        if not self._running:
            return
        self._seq += 1
        self.pings_sent += 1
        self.send(encode_message(PingMsg(role=self.role, seq=self._seq,
                                         send_time=self.sim.now)))
        self._timer = self.sim.schedule(
            self.config.ping_timeout * self.clock_scale,
            self._check, self._seq)

    def _check(self, seq: int) -> None:
        if not self._running:
            return
        if self._acked_seq >= seq:
            self.misses = 0
            # Keep rounds on a true ping_period cadence: the timeout already
            # elapsed, so wait only the remainder.
            remainder = max(0.0,
                            self.config.ping_period - self.config.ping_timeout)
            self._timer = self.sim.schedule(remainder * self.clock_scale,
                                            self._next_round)
            return
        self.misses += 1
        if self.sim.trace.enabled("ping_miss"):
            self.sim.trace.record("ping_miss", who=self.name,
                                  misses=self.misses)
        if self.misses >= self.config.ping_max_misses:
            self.peer_alive = False
            self._running = False
            self.sim.trace.record("peer_declared_dead", who=self.name,
                                  role=self.role)
            self.on_peer_dead()
            return
        self._send_ping()  # timeout: resend immediately

    def _next_round(self) -> None:
        self._send_ping()

