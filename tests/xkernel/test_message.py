"""Unit tests for messages and header codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MessageFormatError
from repro.xkernel.message import Header, Message


class DemoHeader(Header):
    FORMAT = "!HI"
    FIELDS = ("kind", "value")


def test_message_push_prepends():
    message = Message(b"payload")
    message.push(b"HDR")
    assert message.data == b"HDRpayload"


def test_message_pop_removes_prefix():
    message = Message(b"HDRpayload")
    assert message.pop(3) == b"HDR"
    assert message.data == b"payload"


def test_push_pop_round_trip_stack_order():
    message = Message(b"data")
    message.push(b"inner")
    message.push(b"outer")
    assert message.pop(5) == b"outer"
    assert message.pop(5) == b"inner"
    assert message.data == b"data"


def test_pop_beyond_length_raises():
    with pytest.raises(MessageFormatError):
        Message(b"ab").pop(3)


def test_pop_negative_raises():
    with pytest.raises(MessageFormatError):
        Message(b"ab").pop(-1)


def test_peek_does_not_consume():
    message = Message(b"abcdef")
    assert message.peek(3) == b"abc"
    assert len(message) == 6


def test_peek_beyond_length_raises():
    with pytest.raises(MessageFormatError):
        Message(b"ab").peek(5)


def test_peek_negative_raises():
    # A negative count used to slice from the end (all but the last byte).
    with pytest.raises(MessageFormatError):
        Message(b"ab").peek(-1)


def test_copy_is_independent():
    message = Message(b"abc")
    clone = message.copy()
    clone.push(b"X")
    assert message.data == b"abc"
    assert clone.data == b"Xabc"


def test_header_encode_decode_round_trip():
    header = DemoHeader(kind=7, value=123456)
    decoded = DemoHeader.decode(header.encode())
    assert decoded == header
    assert decoded.kind == 7
    assert decoded.value == 123456


def test_header_pop_from_a_short_message_raises_and_leaves_it_unchanged():
    message = Message(b"\x00\x01\x02")
    with pytest.raises(MessageFormatError, match="cannot pop 6 bytes"):
        DemoHeader.pop_fields(message)
    with pytest.raises(MessageFormatError, match="cannot pop 6 bytes"):
        DemoHeader.pop_from(message)
    assert message.data == b"\x00\x01\x02"


def test_header_push_fields_out_of_range_rejected():
    message = Message(b"body")
    with pytest.raises(MessageFormatError, match="cannot encode"):
        DemoHeader.push_fields(message, 1 << 20, 0)
    assert message.data == b"body"


def test_header_size():
    assert DemoHeader.size() == 6


def test_header_push_pop_through_message():
    message = Message(b"body")
    DemoHeader(kind=1, value=2).push_onto(message)
    assert len(message) == 10
    header = DemoHeader.pop_from(message)
    assert header == DemoHeader(kind=1, value=2)
    assert message.data == b"body"


def test_header_missing_field_rejected():
    with pytest.raises(MessageFormatError):
        DemoHeader(kind=1)


def test_header_unknown_field_rejected():
    with pytest.raises(MessageFormatError):
        DemoHeader(kind=1, value=2, bogus=3)


def test_header_too_many_positional_rejected():
    with pytest.raises(MessageFormatError):
        DemoHeader(1, 2, 3)


def test_header_field_given_positionally_and_by_keyword_rejected():
    # The keyword used to win silently.
    with pytest.raises(MessageFormatError, match="given twice"):
        DemoHeader(1, 2, kind=9)
    with pytest.raises(MessageFormatError, match="given twice"):
        DemoHeader(1, kind=9)


def test_header_too_few_positional_rejected():
    with pytest.raises(MessageFormatError, match="missing"):
        DemoHeader(1)
    with pytest.raises(MessageFormatError, match="missing"):
        DemoHeader()


def test_header_mixed_positional_and_keyword_accepted():
    assert DemoHeader(7, value=9) == DemoHeader(7, 9)
    assert DemoHeader(value=9, kind=7) == DemoHeader(7, 9)


def test_header_unknown_keyword_beside_full_positionals_rejected():
    with pytest.raises(MessageFormatError, match="unknown"):
        DemoHeader(1, 2, bogus=3)


def test_header_struct_compiled_per_subclass():
    class WideHeader(Header):
        FORMAT = "!QQ"
        FIELDS = ("a", "b")

    assert WideHeader.size() == 16
    assert DemoHeader.size() == 6
    assert WideHeader(1, 2).encode() == bytes(7) + b"\x01" + bytes(7) + b"\x02"


def test_header_decode_truncated_rejected():
    with pytest.raises(MessageFormatError):
        DemoHeader.decode(b"\x00\x01")


def test_header_encode_out_of_range_rejected():
    with pytest.raises(MessageFormatError):
        DemoHeader(kind=1 << 20, value=0).encode()


def test_header_equality_requires_same_type():
    class OtherHeader(Header):
        FORMAT = "!HI"
        FIELDS = ("kind", "value")

    assert DemoHeader(1, 2) != OtherHeader(1, 2)


@given(st.integers(min_value=0, max_value=0xFFFF),
       st.integers(min_value=0, max_value=0xFFFFFFFF))
@settings(max_examples=200, deadline=None)
def test_header_round_trip_property(kind, value):
    header = DemoHeader(kind=kind, value=value)
    assert DemoHeader.decode(header.encode()) == header


@given(st.binary(max_size=64), st.lists(st.binary(min_size=1, max_size=16),
                                        max_size=5))
@settings(max_examples=200, deadline=None)
def test_message_push_pop_inverse_property(payload, headers):
    message = Message(payload)
    for header in headers:
        message.push(header)
    for header in reversed(headers):
        assert message.pop(len(header)) == header
    assert message.data == payload
