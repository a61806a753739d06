"""The physical network: a shared fabric with bounded delay and loss.

The paper's system assumptions (Section 4.1):

- "An upper bound exists on the communication delay between the primary and
  backup" — the fabric's ``delay_bound`` is that ℓ; per-message delay is
  drawn uniformly from ``[delay_min, delay_bound]``.
- "Link failures are handled using physical redundancy such that network
  partitions are avoided" — partitions are therefore *off* by default, but
  :meth:`NetworkFabric.set_partition` exists for failure-injection tests.
- The evaluation sweeps "probability of message loss" — loss models are
  pluggable: :class:`NoLoss`, i.i.d. :class:`BernoulliLoss` (the evaluation's
  model), and bursty :class:`GilbertElliottLoss`.

The fault subsystem (:mod:`repro.faults`) can additionally duplicate or
corrupt messages in flight (:meth:`NetworkFabric.set_duplication`,
:meth:`NetworkFabric.set_corruption`); both are off by default and draw from
their own named random streams, so enabling them does not perturb the loss
or delay sequences of an otherwise-identical run.

Trace categories: ``link_send``, ``link_drop``, ``link_deliver``,
``link_duplicate``, ``link_corrupt``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import NoRouteError, ProtocolError
from repro.sim.engine import Simulator
from repro.xkernel.message import Message


class LossModel:
    """Decides, per message, whether the fabric drops it."""

    def drops(self, rng: random.Random) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class NoLoss(LossModel):
    """Perfectly reliable delivery."""

    def drops(self, rng: random.Random) -> bool:
        return False

    def describe(self) -> str:
        return "no-loss"


class BernoulliLoss(LossModel):
    """Independent per-message loss with fixed probability (the paper's axis)."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ProtocolError(f"loss probability must be in [0,1]: {probability}")
        self.probability = probability

    def drops(self, rng: random.Random) -> bool:
        return rng.random() < self.probability

    def describe(self) -> str:
        return f"bernoulli({self.probability})"


class GilbertElliottLoss(LossModel):
    """Two-state bursty loss: a *good* and a *bad* channel state.

    Models the paper's observation that "most of the message losses occur
    when the network is overloaded" — losses cluster.  ``p_gb``/``p_bg`` are
    per-message transition probabilities good→bad and bad→good;
    ``loss_good``/``loss_bad`` are the in-state loss probabilities.
    """

    def __init__(self, p_gb: float, p_bg: float,
                 loss_good: float = 0.0, loss_bad: float = 0.5) -> None:
        for name, value in (("p_gb", p_gb), ("p_bg", p_bg),
                            ("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= value <= 1.0:
                raise ProtocolError(f"{name} must be in [0,1]: {value}")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._bad = False

    def drops(self, rng: random.Random) -> bool:
        if self._bad:
            if rng.random() < self.p_bg:
                self._bad = False
        else:
            if rng.random() < self.p_gb:
                self._bad = True
        loss = self.loss_bad if self._bad else self.loss_good
        return rng.random() < loss

    def describe(self) -> str:
        return (f"gilbert-elliott(gb={self.p_gb}, bg={self.p_bg}, "
                f"good={self.loss_good}, bad={self.loss_bad})")


class LinkPort:
    """A host's attachment point to the fabric (its NIC)."""

    def __init__(self, fabric: "NetworkFabric", address: int) -> None:
        self.fabric = fabric
        self.address = address
        #: Object with ``demux(message, info)``; set by the IP layer.
        self.receiver: Optional[Any] = None
        self.up = False

    def send(self, destination: int, message: Message) -> None:
        self.fabric.send(self.address, destination, message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LinkPort addr={self.address} up={self.up}>"


class NetworkFabric:
    """Shared LAN segment connecting all hosts in a scenario.

    Parameters
    ----------
    sim:
        The owning simulator.
    delay_bound:
        ℓ — the guaranteed upper bound on one-way delay (seconds).
    delay_min:
        Lower edge of the uniform delay distribution; defaults to half of ℓ.
    loss_model:
        How messages are dropped; default :class:`NoLoss`.
    """

    def __init__(self, sim: Simulator, delay_bound: float,
                 delay_min: Optional[float] = None,
                 loss_model: Optional[LossModel] = None,
                 name: str = "lan") -> None:
        if delay_bound <= 0:
            raise ProtocolError(f"delay bound must be > 0, got {delay_bound}")
        self.sim = sim
        self.name = name
        self.delay_bound = delay_bound
        self.delay_min = delay_bound / 2.0 if delay_min is None else delay_min
        if not 0.0 <= self.delay_min <= delay_bound:
            raise ProtocolError(
                f"delay_min {self.delay_min} outside [0, {delay_bound}]")
        self.loss_model = loss_model if loss_model is not None else NoLoss()
        #: Probability a delivered message is delivered twice (fault knob).
        self.duplicate_probability = 0.0
        #: Probability a message is bit-corrupted in flight (fault knob).
        self.corrupt_probability = 0.0
        self._ports: Dict[int, LinkPort] = {}
        self._partitions: Set[Tuple[int, int]] = set()
        #: Extra per-pair one-way delay (topology / rack distance), symmetric.
        self._link_distances: Dict[Tuple[int, int], float] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_delivered = 0
        self.messages_duplicated = 0
        self.messages_corrupted = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------

    def attach(self, address: int) -> LinkPort:
        """Attach a new host NIC with the given fabric address."""
        if address in self._ports:
            raise ProtocolError(f"address {address} already attached")
        port = LinkPort(self, address)
        port.up = True
        self._ports[address] = port
        return port

    def set_loss_model(self, model: LossModel) -> None:
        self.loss_model = model

    def set_partition(self, a: int, b: int, partitioned: bool) -> None:
        """Block (or unblock) traffic between two addresses, both directions."""
        key = (min(a, b), max(a, b))
        if partitioned:
            self._partitions.add(key)
        else:
            self._partitions.discard(key)

    def partition_all(self) -> None:
        """Partition every currently attached pair (total network outage)."""
        addresses = sorted(self._ports)
        for index, a in enumerate(addresses):
            for b in addresses[index + 1:]:
                self._partitions.add((a, b))

    def heal_all(self) -> None:
        """Remove every partition at once."""
        self._partitions.clear()

    def is_partitioned(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self._partitions

    def attached_addresses(self) -> List[int]:
        """Every attached fabric address, sorted (deterministic iteration)."""
        return sorted(self._ports)

    def set_isolated(self, address: int, isolated: bool) -> None:
        """Cut one address off from (or rejoin it to) every other host.

        Healing removes *every* partition pair involving ``address`` — if a
        concurrent fault partitioned one of those pairs independently, the
        heal releases it too (documented fault-composition limitation).
        """
        for other in self.attached_addresses():
            if other != address:
                self.set_partition(address, other, isolated)

    def set_link_distance(self, a: int, b: int, extra_delay: float) -> None:
        """Add ``extra_delay`` seconds of one-way delay between two hosts.

        Models topology (rack / site distance) on the otherwise-uniform
        segment: messages between the pair take the usual uniform draw
        *plus* this constant, in both directions.  Setting 0 removes the
        entry.  The effective delay bound for such a pair is
        ``delay_bound + extra_delay`` — deployments placing replicas at a
        distance must size ℓ (and the windows derived from it) accordingly.
        The default (no entries) leaves every existing run byte-identical.
        """
        if extra_delay < 0:
            raise ProtocolError(
                f"link distance must be >= 0: {extra_delay}")
        key = (min(a, b), max(a, b))
        if extra_delay == 0:
            self._link_distances.pop(key, None)
        else:
            self._link_distances[key] = extra_delay

    def link_distance(self, a: int, b: int) -> float:
        """Mean one-way delay between two addresses (routing heuristic).

        The base term is the mean of the uniform draw shared by every pair;
        the extra term is the configured pair distance.  A ``nearest``
        read-routing policy minimises this.
        """
        if a == b:
            return 0.0
        base = (self.delay_min + self.delay_bound) / 2.0
        return base + self._link_distances.get((min(a, b), max(a, b)), 0.0)

    def set_duplication(self, probability: float) -> None:
        """Deliver each non-dropped message twice with this probability."""
        if not 0.0 <= probability <= 1.0:
            raise ProtocolError(
                f"duplicate probability must be in [0,1]: {probability}")
        self.duplicate_probability = probability

    def set_corruption(self, probability: float) -> None:
        """Flip one byte of each message in flight with this probability."""
        if not 0.0 <= probability <= 1.0:
            raise ProtocolError(
                f"corrupt probability must be in [0,1]: {probability}")
        self.corrupt_probability = probability

    # ------------------------------------------------------------------

    def send(self, source: int, destination: int, message: Message) -> None:
        """Transmit ``message`` from ``source`` to ``destination``.

        Drops silently (with a trace) on loss or partition — UDP semantics;
        reliability, where needed, is built above (Section 4.3).
        """
        if destination not in self._ports:
            raise NoRouteError(f"no host at fabric address {destination}")
        self.messages_sent += 1
        self.bytes_sent += len(message)
        rng = self.sim.random.stream(f"{self.name}.loss")
        trace = self.sim.trace
        key = (min(source, destination), max(source, destination))
        if key in self._partitions:
            self.messages_dropped += 1
            if trace.enabled("link_drop"):
                trace.record("link_drop", src=source, dst=destination,
                             reason="partition", size=len(message))
            return
        if self.loss_model.drops(rng):
            self.messages_dropped += 1
            if trace.enabled("link_drop"):
                trace.record("link_drop", src=source, dst=destination,
                             reason="loss", size=len(message))
            return
        delay_rng = self.sim.random.stream(f"{self.name}.delay")
        delay = delay_rng.uniform(self.delay_min, self.delay_bound)
        delay += self._link_distances.get(key, 0.0)
        payload = message.copy()
        if self.corrupt_probability > 0.0:
            corrupt_rng = self.sim.random.stream(f"{self.name}.corrupt")
            if corrupt_rng.random() < self.corrupt_probability:
                self._flip_byte(payload, corrupt_rng)
                self.messages_corrupted += 1
                trace.record("link_corrupt", src=source,
                             dst=destination, size=len(payload))
        if trace.enabled("link_send"):
            trace.record("link_send", src=source, dst=destination,
                         size=len(message), delay=delay)
        self.sim.schedule(delay, self._deliver, source, destination, payload)
        if self.duplicate_probability > 0.0:
            dup_rng = self.sim.random.stream(f"{self.name}.duplicate")
            if dup_rng.random() < self.duplicate_probability:
                dup_delay = (dup_rng.uniform(self.delay_min, self.delay_bound)
                             + self._link_distances.get(key, 0.0))
                self.messages_duplicated += 1
                trace.record("link_duplicate", src=source,
                             dst=destination, delay=dup_delay)
                self.sim.schedule(dup_delay, self._deliver, source,
                                  destination, payload.copy())

    @staticmethod
    def _flip_byte(message: Message, rng: random.Random) -> None:
        """Invert one random byte in place (bit corruption in flight)."""
        size = len(message)
        if size == 0:
            return
        data = bytearray(message.pop(size))
        data[rng.randrange(size)] ^= 0xFF
        message.push(bytes(data))

    def _deliver(self, source: int, destination: int,
                 message: Message) -> None:
        port = self._ports.get(destination)
        trace = self.sim.trace
        if port is None or not port.up or port.receiver is None:
            if trace.enabled("link_drop"):
                trace.record("link_drop", src=source, dst=destination,
                             reason="port-down", size=len(message))
            return
        self.messages_delivered += 1
        if trace.enabled("link_deliver"):
            trace.record("link_deliver", src=source, dst=destination,
                         size=len(message))
        port.receiver.demux(message, {"link_src": source,
                                      "link_dst": destination})
