"""The RTPB wire protocol.

The paper's RTPB protocol is the anchor protocol of the x-kernel stack,
running over UDP (Figure 5).  This module defines its message vocabulary and
byte encoding:

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

Each message encodes as a 1-byte type tag followed by a fixed
:class:`~repro.xkernel.message.Header` body and an optional payload.
``encode_message`` / ``decode_message`` round-trip every type; a property
test in the suite hammers this.

Adding a message takes three steps, all in this file: a ``Header`` subclass
giving the body's ``FORMAT`` and ``FIELDS``; a frozen dataclass whose leading
fields are exactly those ``FIELDS``, in that order, carrying a ``TYPE`` tag
no other message uses; and one ``_CODEC`` line joining the two.  Nothing else knows the wire
format — the codec functions are table-driven, and the suite fails a tagged
class that is missing from the table or does not round-trip.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Tuple, Type, Union

from repro.errors import MessageFormatError
from repro.xkernel.message import Header

#: The well-known UDP port RTPB servers listen on.
RTPB_PORT = 5000


# ---------------------------------------------------------------------------
# Message bodies
# ---------------------------------------------------------------------------


class _UpdateHeader(Header):
    FORMAT = "!IIddH"
    FIELDS = ("object_id", "seq", "write_time", "source_time", "payload_len")


class _PingHeader(Header):
    FORMAT = "!BId"
    FIELDS = ("role", "seq", "send_time")


class _PingAckHeader(Header):
    FORMAT = "!Idd"
    FIELDS = ("seq", "echo_send_time", "ack_time")


class _RetxHeader(Header):
    FORMAT = "!II"
    FIELDS = ("object_id", "last_seq")


class _RegisterHeader(Header):
    FORMAT = "!IIdddd"
    FIELDS = ("object_id", "size_bytes", "client_period",
              "delta_primary", "delta_backup", "update_period")


class _RegisterAckHeader(Header):
    FORMAT = "!I?"  # one byte, 0 or 1, from the flag's truth value
    FIELDS = ("object_id", "accepted")


class _RecruitHeader(Header):
    FORMAT = "!II"
    FIELDS = ("primary_address", "object_count")


class _RecruitAckHeader(Header):
    FORMAT = "!I"
    FIELDS = ("backup_address",)


# ---------------------------------------------------------------------------
# Messages (typed wrappers over the headers)
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class PingMsg:
    role: int  # 0 = primary, 1 = backup
    seq: int
    send_time: float

    TYPE = 3


@dataclass(frozen=True)
class PingAckMsg:
    seq: int
    echo_send_time: float
    ack_time: float

    TYPE = 4


@dataclass(frozen=True)
class RetxRequestMsg:
    """Backup asks for a fresh copy of an object it suspects it lost."""

    object_id: int
    last_seq: int

    TYPE = 5


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


@dataclass(frozen=True)
class RegisterAckMsg:
    object_id: int
    accepted: bool

    TYPE = 7


@dataclass(frozen=True)
class RecruitMsg:
    """New primary asking a spare host to become the backup."""

    primary_address: int
    object_count: int

    TYPE = 8


@dataclass(frozen=True)
class RecruitAckMsg:
    backup_address: int

    TYPE = 9


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


class _UpdateAckHeader(Header):
    FORMAT = "!IId"
    FIELDS = ("object_id", "seq", "high_water")


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


class _ReplicaSubscribeHeader(Header):
    FORMAT = "!II"
    FIELDS = ("replica_address", "known_objects")


@dataclass(frozen=True)
class FreshnessBeaconMsg:
    """Replica's applied high-water mark, beaconed to the primary.

    ``floor_source_time`` is the minimum applied source timestamp over the
    replica's objects — the replica provably serves nothing staler.  The
    primary uses beacons as subscriber liveness (a silent replica falls out
    of the fan-out) and exposes the floor for diagnostics.
    """

    replica_address: int
    floor_source_time: float
    applied_updates: int

    TYPE = 12


class _FreshnessBeaconHeader(Header):
    FORMAT = "!IdI"
    FIELDS = ("replica_address", "floor_source_time", "applied_updates")


RTPBMessage = Union[UpdateMsg, PingMsg, PingAckMsg, RetxRequestMsg,
                    RegisterMsg, RegisterAckMsg, RecruitMsg, RecruitAckMsg,
                    UpdateAckMsg, ReplicaSubscribeMsg, FreshnessBeaconMsg]


# ---------------------------------------------------------------------------
# Encoding / decoding
# ---------------------------------------------------------------------------


def _wire(cls: type, header: Type[Header]
          ) -> Tuple[type, struct.Struct, Tuple[str, ...]]:
    # Every body FORMAT is "!"-prefixed (no padding), so tag byte + body
    # compile into one Struct that packs the same bytes as the two apart.
    return cls, struct.Struct("!B" + header.FORMAT[1:]), header.FIELDS


#: The codec — one line per wire tag: the message class, the precompiled
#: ``Struct`` of tag byte + body, and the body's field names, which are the
#: message's leading dataclass fields in declaration order.  Only
#: :class:`UpdateMsg` differs: two tags and a payload tail.
_CODEC: Dict[int, Tuple[type, struct.Struct, Tuple[str, ...]]] = {
    UpdateMsg.TYPE_UPDATE: _wire(UpdateMsg, _UpdateHeader),
    UpdateMsg.TYPE_SNAPSHOT: _wire(UpdateMsg, _UpdateHeader),
    PingMsg.TYPE: _wire(PingMsg, _PingHeader),
    PingAckMsg.TYPE: _wire(PingAckMsg, _PingAckHeader),
    RetxRequestMsg.TYPE: _wire(RetxRequestMsg, _RetxHeader),
    RegisterMsg.TYPE: _wire(RegisterMsg, _RegisterHeader),
    RegisterAckMsg.TYPE: _wire(RegisterAckMsg, _RegisterAckHeader),
    RecruitMsg.TYPE: _wire(RecruitMsg, _RecruitHeader),
    RecruitAckMsg.TYPE: _wire(RecruitAckMsg, _RecruitAckHeader),
    UpdateAckMsg.TYPE: _wire(UpdateAckMsg, _UpdateAckHeader),
    ReplicaSubscribeMsg.TYPE: _wire(ReplicaSubscribeMsg,
                                    _ReplicaSubscribeHeader),
    FreshnessBeaconMsg.TYPE: _wire(FreshnessBeaconMsg,
                                   _FreshnessBeaconHeader),
}

#: message class -> its tag (:class:`UpdateMsg` picks between its two).
_TAG_OF: Dict[type, int] = {entry[0]: tag for tag, entry in _CODEC.items()}


def encode_message(message: RTPBMessage) -> bytes:
    """Serialise any RTPB message to bytes (type tag + body [+ payload])."""
    cls = type(message)
    tag = _TAG_OF.get(cls)
    if tag is None:
        raise MessageFormatError(f"cannot encode {cls.__name__}")
    _cls, wire, fields = _CODEC[tag]
    try:
        if cls is UpdateMsg:
            payload = message.payload
            return wire.pack(
                cls.TYPE_SNAPSHOT if message.snapshot else cls.TYPE_UPDATE,
                message.object_id, message.seq, message.write_time,
                message.source_time, len(payload)) + payload
        return wire.pack(tag, *[getattr(message, field) for field in fields])
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
    cls, wire, _fields = entry
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
