"""Messages with x-kernel header-stack discipline.

An x-kernel message is a byte string manipulated as a stack: a protocol
*pushes* its header onto the front before handing the message down, and the
peer protocol *pops* the same number of bytes on the way up.  Keeping this
byte-exact (rather than passing Python objects around) means header encoding
bugs are real bugs our tests can catch, and message sizes — which drive link
transmission behaviour — are honest.
"""

from __future__ import annotations

import struct
from typing import ClassVar, Type, TypeVar

from repro.errors import MessageFormatError

H = TypeVar("H", bound="Header")


class Message:
    """A byte buffer with push (prepend) / pop (remove prefix) semantics."""

    __slots__ = ("_data",)

    def __init__(self, payload: bytes = b"") -> None:
        self._data = bytearray(payload)

    @property
    def data(self) -> bytes:
        """The current full contents (headers + payload)."""
        return bytes(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def push(self, header_bytes: bytes) -> None:
        """Prepend ``header_bytes`` (a layer adding its header going down)."""
        self._data[:0] = header_bytes

    def pop(self, count: int) -> bytes:
        """Remove and return the first ``count`` bytes (a layer going up).

        Raises :class:`~repro.errors.MessageFormatError` on truncation.
        """
        if count < 0:
            raise MessageFormatError(f"cannot pop {count} bytes")
        if count > len(self._data):
            raise MessageFormatError(
                f"cannot pop {count} bytes from a {len(self._data)}-byte message")
        popped = bytes(self._data[:count])
        del self._data[:count]
        return popped

    def peek(self, count: int) -> bytes:
        """The first ``count`` bytes without removing them."""
        if count < 0:
            raise MessageFormatError(f"cannot peek {count} bytes")
        if count > len(self._data):
            raise MessageFormatError(
                f"cannot peek {count} bytes of a {len(self._data)}-byte message")
        return bytes(self._data[:count])

    def copy(self) -> "Message":
        """An independent copy (links hand copies to receivers)."""
        return Message(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.data[:16].hex()
        return f"<Message {len(self)}B {preview}...>"


class Header:
    """Base class for fixed-format protocol headers.

    Subclasses define ``FORMAT`` (a :mod:`struct` format string, network
    byte order recommended) and ``FIELDS`` (attribute names in pack order).
    They then get ``encode``/``decode`` and message ``push_onto``/``pop_from``
    for free.  Example::

        class UdpHeader(Header):
            FORMAT = "!HHHH"
            FIELDS = ("src_port", "dst_port", "length", "checksum")

    ``FORMAT`` is compiled once, when the subclass is defined.  Construction
    takes every field positionally (the per-datagram path), by keyword, or a
    mix; anything else — too many or too few fields, an unknown name, a field
    given twice — raises :class:`~repro.errors.MessageFormatError`.
    """

    FORMAT: ClassVar[str] = ""
    FIELDS: ClassVar[tuple] = ()
    _struct: ClassVar[struct.Struct] = struct.Struct("")

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._struct = struct.Struct(cls.FORMAT)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self.FIELDS
        if kwargs or len(args) != len(fields):
            args = self._resolve(args, kwargs)
        self.__dict__.update(zip(fields, args))

    def _resolve(self, args: tuple, kwargs: dict) -> tuple:
        """Field values in pack order from a mixed or malformed call."""
        fields = self.FIELDS
        name = type(self).__name__
        if len(args) > len(fields):
            raise MessageFormatError(f"{name}: too many positional fields")
        repeated = [field for field in fields[:len(args)] if field in kwargs]
        if repeated:
            raise MessageFormatError(
                f"{name}: fields {repeated} given twice")
        named = fields[len(args):]
        missing = [field for field in named if field not in kwargs]
        if missing:
            raise MessageFormatError(f"{name}: missing fields {missing}")
        unknown = sorted(set(kwargs) - set(named))
        if unknown:
            raise MessageFormatError(f"{name}: unknown fields {unknown}")
        return args + tuple(kwargs[field] for field in named)

    @classmethod
    def size(cls) -> int:
        """Encoded size in bytes."""
        return cls._struct.size

    def encode(self) -> bytes:
        values = [getattr(self, field) for field in self.FIELDS]
        try:
            return self._struct.pack(*values)
        except struct.error as exc:
            raise MessageFormatError(
                f"{type(self).__name__}: cannot encode {tuple(values)!r}: {exc}"
            ) from exc

    @classmethod
    def decode(cls: Type[H], data: bytes) -> H:
        try:
            values = cls._struct.unpack(data)
        except struct.error as exc:
            raise MessageFormatError(
                f"{cls.__name__}: cannot decode {len(data)} bytes: {exc}") from exc
        return cls(*values)

    def push_onto(self, message: Message) -> None:
        """Push this header onto ``message`` (sender side)."""
        message.push(self.encode())

    @classmethod
    def pop_from(cls: Type[H], message: Message) -> H:
        """Pop and decode this header from ``message`` (receiver side)."""
        return cls.decode(message.pop(cls._struct.size))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, field) == getattr(other, field)
                   for field in self.FIELDS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{field}={getattr(self, field)!r}" for field in self.FIELDS)
        return f"{type(self).__name__}({fields})"
