"""The RTPB wire protocol.

The paper's RTPB protocol is the anchor protocol of the x-kernel stack,
running over UDP (Figure 5); here each server sends and receives its
encoded messages through a :class:`~repro.net.transport.UdpEndpoint` on
its host's UDP.  This module defines the message vocabulary and byte
encoding:

========================  =====================================================
``UPDATE``                periodic object snapshot, primary → backup
``STATE_SNAPSHOT``        same payload, used during new-backup integration
``PING`` / ``PING_ACK``   bidirectional heartbeats (Section 4.4)
``RETX_REQUEST``          backup-initiated retransmission request (Section 4.3)
``REGISTER`` /            object registration / space reservation on the
``REGISTER_ACK``          backup (Section 4.2)
``RECRUIT`` /             primary recruiting a spare host as the new backup
``RECRUIT_ACK``           after a failure (Section 4.4)
``REPLICA_SUBSCRIBE``     read replica joining the primary's update fan-out
``FRESHNESS_BEACON``      replica's applied high-water timestamp, replica →
                          primary (read-replica extension, not in the paper)
========================  =====================================================

Each message encodes as a 1-byte type tag followed by a fixed ``struct``
body and an optional payload.
``encode_message`` / ``decode_message`` round-trip every type; a property
test in the suite hammers this.

Adding a message is one step: a frozen dataclass under ``@_wire(body)``,
where ``body`` is the ``struct`` format of its fields in declaration order,
carrying a ``TYPE`` tag no other message uses.  Nothing else knows the wire
format — the decorator fills the codec table the two functions index, and
the suite fails a tagged class that is missing from the table or does not
round-trip.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from typing import Callable, Dict, Tuple, TypeVar, Union

from repro.errors import MessageFormatError

#: The well-known UDP port RTPB servers listen on.
RTPB_PORT = 5000


# ---------------------------------------------------------------------------
# The codec table, filled by ``@_wire`` as each message is declared
# ---------------------------------------------------------------------------

#: wire tag -> (message class, the precompiled ``Struct`` of tag byte + body,
#: the message's field names in declaration order).  Only :class:`UpdateMsg`
#: differs: two tags and a payload tail.
_CODEC: Dict[int, Tuple[type, struct.Struct, Tuple[str, ...]]] = {}

#: message class -> its tag (:class:`UpdateMsg` picks between its two).
_TAG_OF: Dict[type, int] = {}

_M = TypeVar("_M", bound=type)


def _wire(body: str) -> Callable[[_M], _M]:
    """Enter a message dataclass into the codec under its ``TYPE*`` tag(s).

    ``body`` is the big-endian ``struct`` format of the message body; no
    padding, so tag byte + body compile into one ``Struct``.
    """
    def register(cls: _M) -> _M:
        entry = (cls, struct.Struct("!B" + body),
                 tuple(field.name for field in fields(cls)))
        for name, tag in vars(cls).items():
            if name == "TYPE" or name.startswith("TYPE_"):
                _CODEC[tag] = entry
                _TAG_OF[cls] = tag
        return cls
    return register


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@_wire("IIddH")
@dataclass(frozen=True)
class UpdateMsg:
    """One object snapshot pushed to the backup."""

    object_id: int
    seq: int
    #: Primary apply time of this version (drives distance metrics).
    write_time: float
    #: When the client sampled the environment (external-world timestamp).
    source_time: float
    payload: bytes = b""
    #: True for state-transfer snapshots during backup integration.
    snapshot: bool = False

    TYPE_UPDATE = 1
    TYPE_SNAPSHOT = 2


@_wire("BId")
@dataclass(frozen=True)
class PingMsg:
    role: int  # 0 = primary, 1 = backup
    seq: int
    send_time: float

    TYPE = 3


@_wire("Idd")
@dataclass(frozen=True)
class PingAckMsg:
    seq: int
    echo_send_time: float
    ack_time: float

    TYPE = 4


@_wire("II")
@dataclass(frozen=True)
class RetxRequestMsg:
    """Backup asks for a fresh copy of an object it suspects it lost."""

    object_id: int
    last_seq: int

    TYPE = 5


@_wire("IIdddd")
@dataclass(frozen=True)
class RegisterMsg:
    """Primary reserves space for an object on the backup."""

    object_id: int
    size_bytes: int
    client_period: float
    delta_primary: float
    delta_backup: float
    #: The transmission period the primary chose (lets the backup size its
    #: retransmission watchdog).
    update_period: float

    TYPE = 6


@_wire("I?")  # the flag is one byte, 0 or 1, from its truth value
@dataclass(frozen=True)
class RegisterAckMsg:
    object_id: int
    accepted: bool

    TYPE = 7


@_wire("II")
@dataclass(frozen=True)
class RecruitMsg:
    """New primary asking a spare host to become the backup."""

    primary_address: int
    object_count: int

    TYPE = 8


@_wire("I")
@dataclass(frozen=True)
class RecruitAckMsg:
    backup_address: int

    TYPE = 9


@_wire("IId")
@dataclass(frozen=True)
class UpdateAckMsg:
    """Backup acknowledges one applied update.

    The paper's design deliberately does **not** ack updates (Section 4.3);
    this message exists for the per-update-ack ablation, the eager
    (synchronous) replication baseline, and the commutative/stable fast
    path built on top of it (:mod:`repro.core.fastpath`).

    ``high_water`` is the backup's acked source-time frontier for the
    object — the highest source timestamp its stored version carries at
    ack time.  A stale arrival still reports the *current* frontier, so
    the primary's witness set converges even when acks race.  0.0 (the
    epoch, before any write) on deployments predating the field.
    """

    object_id: int
    seq: int
    high_water: float = 0.0

    TYPE = 10


@_wire("II")
@dataclass(frozen=True)
class ReplicaSubscribeMsg:
    """Read replica asks the current primary for the update stream.

    Replicas are *not* the paper's backups: they never ack, never vote,
    never fail over.  Subscribing merely adds the replica's address to the
    primary's update fan-out; ``known_objects`` lets the primary detect a
    cold (or reset) replica and push a full registration + snapshot sync.
    Replicas resubscribe periodically, so a post-failover primary rebuilds
    its subscriber set within one resubscribe period.
    """

    replica_address: int
    known_objects: int

    TYPE = 11


@_wire("IdI")
@dataclass(frozen=True)
class FreshnessBeaconMsg:
    """Replica's applied high-water mark, beaconed to the primary.

    ``floor_source_time`` is the minimum applied source timestamp over the
    replica's objects — the replica provably serves nothing staler.  The
    primary uses a beacon only as subscriber liveness (a silent replica
    falls out of the fan-out) and reads neither the floor nor the count.
    """

    replica_address: int
    floor_source_time: float
    applied_updates: int

    TYPE = 12


RTPBMessage = Union[UpdateMsg, PingMsg, PingAckMsg, RetxRequestMsg,
                    RegisterMsg, RegisterAckMsg, RecruitMsg, RecruitAckMsg,
                    UpdateAckMsg, ReplicaSubscribeMsg, FreshnessBeaconMsg]


# ---------------------------------------------------------------------------
# Encoding / decoding
# ---------------------------------------------------------------------------


def encode_message(message: RTPBMessage) -> bytes:
    """Serialise any RTPB message to bytes (type tag + body [+ payload])."""
    cls = type(message)
    tag = _TAG_OF.get(cls)
    if tag is None:
        raise MessageFormatError(f"cannot encode {cls.__name__}")
    _cls, wire, names = _CODEC[tag]
    try:
        if cls is UpdateMsg:
            payload = message.payload
            return wire.pack(
                cls.TYPE_SNAPSHOT if message.snapshot else cls.TYPE_UPDATE,
                message.object_id, message.seq, message.write_time,
                message.source_time, len(payload)) + payload
        return wire.pack(tag, *[getattr(message, name) for name in names])
    except struct.error as exc:
        raise MessageFormatError(
            f"{cls.__name__}: cannot encode {message!r}: {exc}") from exc


def decode_message(data: bytes) -> RTPBMessage:
    """Parse bytes produced by :func:`encode_message`."""
    if len(data) < 1:
        raise MessageFormatError("empty RTPB message")
    entry = _CODEC.get(data[0])
    if entry is None:
        raise MessageFormatError(f"unknown RTPB message tag {data[0]}")
    cls, wire, _names = entry
    try:
        if cls is UpdateMsg:
            (tag, object_id, seq, write_time, source_time,
             payload_len) = wire.unpack_from(data)
            payload = data[wire.size:]
            if len(payload) != payload_len:
                raise MessageFormatError(
                    f"update payload truncated: header says {payload_len}, "
                    f"got {len(payload)}")
            return UpdateMsg(object_id, seq, write_time, source_time, payload,
                             tag == UpdateMsg.TYPE_SNAPSHOT)
        return cls(*wire.unpack(data)[1:])
    except struct.error as exc:
        raise MessageFormatError(
            f"{cls.__name__}: cannot decode {len(data)} bytes: {exc}") from exc
