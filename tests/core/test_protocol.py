"""Unit tests for the RTPB wire protocol."""

import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rtpb_protocol
from repro.core.rtpb_protocol import (
    FreshnessBeaconMsg,
    PingAckMsg,
    PingMsg,
    RecruitAckMsg,
    RecruitMsg,
    RegisterAckMsg,
    RegisterMsg,
    ReplicaSubscribeMsg,
    RetxRequestMsg,
    UpdateAckMsg,
    UpdateMsg,
    decode_message,
    encode_message,
)
from repro.errors import MessageFormatError
from repro.net.ip import IPHeader
from repro.net.udp import UDPHeader
from repro.xkernel.message import Message

SAMPLES = [
    UpdateMsg(object_id=3, seq=17, write_time=1.25, source_time=1.2,
              payload=b"\x01\x02\x03"),
    UpdateMsg(object_id=0, seq=1, write_time=0.0, source_time=0.0,
              payload=b"", snapshot=True),
    PingMsg(role=0, seq=42, send_time=3.5),
    PingAckMsg(seq=42, echo_send_time=3.5, ack_time=3.51),
    RetxRequestMsg(object_id=9, last_seq=100),
    RegisterMsg(object_id=5, size_bytes=256, client_period=0.1,
                delta_primary=0.1, delta_backup=0.3, update_period=0.0975),
    RegisterAckMsg(object_id=5, accepted=True),
    RegisterAckMsg(object_id=5, accepted=False),
    RecruitMsg(primary_address=2, object_count=12),
    RecruitAckMsg(backup_address=3),
    UpdateAckMsg(object_id=7, seq=55),
]


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__ +
                         str(getattr(m, "seq", "")))
def test_round_trip(message):
    assert decode_message(encode_message(message)) == message


def test_update_payload_preserved_byte_exact():
    payload = bytes(range(256))
    message = UpdateMsg(1, 2, 0.5, 0.4, payload)
    decoded = decode_message(encode_message(message))
    assert decoded.payload == payload


def test_snapshot_flag_round_trips():
    plain = UpdateMsg(1, 2, 0.5, 0.4, b"x", snapshot=False)
    snap = UpdateMsg(1, 2, 0.5, 0.4, b"x", snapshot=True)
    assert not decode_message(encode_message(plain)).snapshot
    assert decode_message(encode_message(snap)).snapshot


def test_empty_message_rejected():
    with pytest.raises(MessageFormatError):
        decode_message(b"")


def test_unknown_tag_rejected():
    with pytest.raises(MessageFormatError):
        decode_message(b"\xff")


def test_truncated_update_rejected():
    encoded = encode_message(UpdateMsg(1, 2, 0.5, 0.4, b"payload"))
    with pytest.raises(MessageFormatError):
        decode_message(encoded[:-3])


def test_truncated_ping_rejected():
    encoded = encode_message(PingMsg(0, 1, 2.0))
    with pytest.raises(MessageFormatError):
        decode_message(encoded[:4])


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0, max_value=1e6, allow_nan=False),
       st.floats(min_value=0, max_value=1e6, allow_nan=False),
       st.binary(max_size=512),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_update_round_trip_property(object_id, seq, write_time, source_time,
                                    payload, snapshot):
    message = UpdateMsg(object_id, seq, write_time, source_time, payload,
                        snapshot)
    assert decode_message(encode_message(message)) == message


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=1e-6, max_value=10.0),
       st.floats(min_value=1e-6, max_value=10.0),
       st.floats(min_value=1e-6, max_value=10.0),
       st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_register_round_trip_property(object_id, period, delta_p, delta_b,
                                      update_period):
    message = RegisterMsg(object_id, 64, period, delta_p, delta_b,
                          update_period)
    assert decode_message(encode_message(message)) == message


# ---------------------------------------------------------------------------
# Wire bytes: captured at commit bd65ab1, before the codec became a table
# ---------------------------------------------------------------------------

GOLDEN = [
    (UpdateMsg(object_id=3, seq=17, write_time=1.25, source_time=1.2,
               payload=b"\x01\x02\x03"),
     "0100000003000000113ff40000000000003ff33333333333330003010203"),
    (UpdateMsg(object_id=0, seq=1, write_time=0.0, source_time=0.5,
               payload=b"", snapshot=True),
     "02000000000000000100000000000000003fe00000000000000000"),
    (PingMsg(role=1, seq=42, send_time=3.5),
     "03010000002a400c000000000000"),
    (PingAckMsg(seq=42, echo_send_time=3.5, ack_time=3.51),
     "040000002a400c000000000000400c147ae147ae14"),
    (RetxRequestMsg(object_id=9, last_seq=100), "050000000900000064"),
    (RegisterMsg(object_id=5, size_bytes=256, client_period=0.1,
                 delta_primary=0.1, delta_backup=0.3, update_period=0.0975),
     "0600000005000001003fb999999999999a3fb999999999999a"
     "3fd33333333333333fb8f5c28f5c28f6"),
    (RegisterAckMsg(object_id=5, accepted=True), "070000000501"),
    (RecruitMsg(primary_address=2, object_count=12), "08000000020000000c"),
    (RecruitAckMsg(backup_address=3), "0900000003"),
    (UpdateAckMsg(object_id=7, seq=55, high_water=2.75),
     "0a00000007000000374006000000000000"),
    (ReplicaSubscribeMsg(replica_address=6, known_objects=8),
     "0b0000000600000008"),
    (FreshnessBeaconMsg(replica_address=6, floor_source_time=4.125,
                        applied_updates=321),
     "0c00000006401080000000000000000141"),
]


@pytest.mark.parametrize("message, wire", GOLDEN,
                         ids=[wire[:2] for _message, wire in GOLDEN])
def test_golden_wire_bytes_both_directions(message, wire):
    assert encode_message(message).hex() == wire
    decoded = decode_message(bytes.fromhex(wire))
    assert decoded == message
    assert repr(decoded) == repr(message)  # e.g. accepted=True, not 1


def test_golden_covers_every_tag():
    assert [int(wire[:2], 16) for _message, wire in GOLDEN] == \
        list(range(1, 13))


def test_golden_udp_and_ip_headers():
    udp = UDPHeader(src_port=5000, dst_port=5001, length=37, checksum=0xBEEF)
    assert udp.encode().hex() == "138813890025beef"
    assert UDPHeader.decode(bytes.fromhex("138813890025beef")) == udp
    ip = IPHeader(src=1, dst=0xC0A80002, proto=17, length=57)
    assert ip.encode().hex() == "00000001c0a8000211000039"
    assert IPHeader.decode(bytes.fromhex("00000001c0a8000211000039")) == ip


@pytest.mark.parametrize("header, fields, wire", [
    (UDPHeader, (5000, 5001, 37, 0xBEEF), "138813890025beef"),
    (IPHeader, (1, 0xC0A80002, 17, 57), "00000001c0a8000211000039"),
], ids=["udp", "ip"])
def test_header_primitive_matches_the_object_form(header, fields, wire):
    pushed, wrapped = Message(b"body"), Message(b"body")
    header.push_fields(pushed, *fields)
    header(*fields).push_onto(wrapped)
    assert pushed.data == wrapped.data == bytes.fromhex(wire) + b"body"
    assert header.pop_fields(pushed) == fields
    assert header.pop_from(wrapped) == header(*fields)
    assert pushed.data == wrapped.data == b"body"
    short = Message(bytes.fromhex(wire)[:-1])
    with pytest.raises(MessageFormatError, match="cannot pop"):
        header.pop_fields(short)
    assert short.data == bytes.fromhex(wire)[:-1]


def _tagged_classes():
    """Every class in the module carrying a ``TYPE`` / ``TYPE_*`` wire tag."""
    return {
        cls: sorted(value for name, value in vars(cls).items()
                    if name == "TYPE" or name.startswith("TYPE_"))
        for _name, cls in inspect.getmembers(rtpb_protocol, inspect.isclass)
        if cls.__module__ == rtpb_protocol.__name__
        and any(name == "TYPE" or name.startswith("TYPE_")
                for name in vars(cls))}


def test_every_tagged_class_is_in_the_codec_table():
    """A message added without its ``_CODEC`` line fails here."""
    tagged = _tagged_classes()
    assert len(tagged) == 11
    tags = sorted(tag for tags in tagged.values() for tag in tags)
    assert tags == sorted(set(tags)), "two messages share a wire tag"
    assert sorted(rtpb_protocol._CODEC) == tags
    for cls, cls_tags in tagged.items():
        for tag in cls_tags:
            assert rtpb_protocol._CODEC[tag][0] is cls


@pytest.mark.parametrize("cls", sorted(_tagged_classes(),
                                       key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_every_tagged_class_round_trips(cls):
    """Distinct value per field, so a field-order slip cannot cancel out."""
    values = {}
    for index, field in enumerate(dataclasses.fields(cls), start=1):
        values[field.name] = {
            "int": index, "float": index + 0.5, "bool": True,
            "bytes": bytes([index]) * index}[field.type]
    message = cls(**values)
    assert decode_message(encode_message(message)) == message


def test_encode_rejects_a_class_outside_the_table():
    with pytest.raises(MessageFormatError):
        encode_message(object())


def test_encode_out_of_range_field_is_a_format_error():
    with pytest.raises(MessageFormatError):
        encode_message(RetxRequestMsg(object_id=1 << 40, last_seq=0))
    with pytest.raises(MessageFormatError):
        encode_message(UpdateMsg(1, 2, 0.5, 0.4, bytes(1 << 16)))
