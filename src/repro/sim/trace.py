"""Structured trace of simulation activity.

Model components record what happened (a job finished, a message was dropped,
an update was applied) as :class:`TraceRecord` rows.  The metrics collectors
and consistency checkers consume these rows after the run; tests assert on
them directly.  Online observers (the fault subsystem's invariant monitor)
:meth:`~Tracer.subscribe` instead and see every record as it is produced,
independently of the storage filter.

A record is one tuple ``(time, *values)`` whose class is its shape: one
:class:`TraceRecord` subclass per (category, key tuple), made once, holds the
category, key -> position and the glue of its digest line.

A tracer keeps values, not records.  Each shape's rows are columns (exact
floats in ``array('d')``, 64-bit ints in ``array('q')``, anything else in a
list), and the stored order is one small array of shape numbers: ~66 B per
``read_served`` row against ~220 B as tuples.  :meth:`Tracer.select` returns
a :class:`Selection`, a snapshot that builds each record as it is read; a
single-field query (``select("primary_write", object=3)``) is answered from
a hash index of the category's rows by that field's value, built by the
first query that names the pair and caught up at each later one.  Results,
iteration order and :meth:`Tracer.digest` are those of a plain scan of
stored records, which the tests keep as the reference.

Dead categories cost (almost) nothing: hot call sites guard with ``if
trace.enabled("tick"):``, a per-category cache that skips exactly the
records :meth:`Tracer.record` would drop when a run narrowed the filter.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from array import array
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate, chain, islice, repeat
from types import MappingProxyType
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, Mapping, Optional, Sequence, Tuple, Type, cast)

#: (category, key tuple) -> its one shape class: a process-wide intern table.
_SHAPES: Dict[Tuple[str, Tuple[str, ...]], Type[TraceRecord]] = {}

_Timed = namedtuple("_Timed", "time")
#: The C-level tuple item descriptor ``namedtuple`` gives its fields.
_ItemGetter = type(vars(_Timed)["time"])


class TraceRecord(tuple):
    """One traced occurrence at virtual time :attr:`time`: the tuple
    ``(time, *values)``, an instance of its (category, key tuple)'s class."""

    __slots__ = ()
    #: Field 0, by the C item getter (a ``property`` is ~5x slower).
    time: float = _ItemGetter(0, None)
    # Set per shape: key -> tuple position (in key order), and the digest
    # line ``repr((time, category, sorted(fields.items())))`` as constant
    # glue before each tuple position it reprs, in line order, and a tail.
    category: str
    _index: Dict[str, int]
    _layout: Tuple[Tuple[str, int], ...]
    _tail: str

    def __new__(cls, time: float, category: str,
                fields: Mapping[str, Any] = MappingProxyType({})
                ) -> TraceRecord:
        keys = tuple(fields)
        shape = _SHAPES.get((category, keys)) or _new_shape(category, keys)
        return tuple.__new__(shape, (time, *fields.values()))

    if TYPE_CHECKING:  # each shape class defines them; see _new_shape
        def __getitem__(self, key: str) -> Any: ...  # type: ignore[override]
        def get(self, key: str, default: Any = None) -> Any: ...

    @property
    def fields(self) -> Dict[str, Any]:
        return dict(zip(self._index, islice(self, 1, None)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceRecord):
            return ((self.time, self.category, self.fields)
                    == (other.time, other.category, other.fields))
        # Never item by item, as tuple's == would against a plain tuple.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __lt__(self, other: object) -> bool:
        raise TypeError("trace records are not ordered")

    __le__ = __gt__ = __ge__ = __lt__
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"TraceRecord(time={self.time!r}, "
                f"category={self.category!r}, fields={self.fields!r})")

    def __reduce__(self) -> Tuple[Any, ...]:
        return TraceRecord, (self.time, self.category, self.fields)


def _new_shape(category: str, keys: Tuple[str, ...]) -> Type[TraceRecord]:
    """Make and intern the class of every (category, keys) record.  Item
    ``i`` is also attribute ``_i``, a C item getter: ``getattr`` of it is the
    cheapest keyed read on a tuple subclass (``tuple.__getitem__`` is not)."""
    index = {key: position for position, key in enumerate(keys, 1)}
    names = {key: f"_{position}" for key, position in index.items()}

    def __getitem__(self: TraceRecord, key: str) -> Any:
        return getattr(self, names[key])

    def get(self: TraceRecord, key: str, default: Any = None) -> Any:
        name = names.get(key)
        return default if name is None else getattr(self, name)

    ordered = sorted(keys)
    head = f", {category!r}, ["  # between the time and the first field
    glue = ["(", *[f"{'), ' if n else head}({key!r}, "
                   for n, key in enumerate(ordered)]]
    return _SHAPES.setdefault((category, keys), cast("Type[TraceRecord]", type(
        "TraceRecord", (TraceRecord,), {
            "__slots__": (), "__getitem__": __getitem__, "get": get,
            "category": category, "_index": index,
            "_layout": tuple(zip(glue, (0, *map(index.get, ordered)))),
            "_tail": ")])" if keys else f"{head}])",
            **{names[key]: _ItemGetter(index[key], None) for key in keys}})))


#: The trace order's typecode once a tracer holds this many shapes.
_WIDER_ORDER = {256: "H", 65536: "I"}
#: Rows a table takes before it moves them into its columns.
_BATCH = 256
#: By typecode: the one type the column holds, a full batch's packer.
_KINDS = {"d": float, "q": int}
_PACK = {code: struct.Struct(f"{_BATCH}{code}").pack for code in _KINDS}


_WORD, _DOUBLE = struct.Struct("Q"), struct.Struct("d")


class _Reprs(Dict[int, str]):
    """A float column's bit pattern -> ``repr`` of its value: each pattern
    rendered once, and at most a batch of them kept."""

    def __missing__(self, bits: int) -> str:
        text = repr(_DOUBLE.unpack(_WORD.pack(bits))[0])
        if len(self) < _BATCH:
            self[bits] = text
        return text


def _reprs(column: Any) -> Iterator[str]:
    """``map(repr, column)``, through a :class:`_Reprs` memo for a float
    column with at most 3/4 of its first batch distinct.  The memo is keyed
    by bits (a cast view, no copy), so ``-0.0`` and ``0.0`` stay apart."""
    if type(column) is array and column.typecode == "d":
        bits = memoryview(column).cast("B").cast("Q")
        first = bits[:_BATCH]
        if len(set(first)) * 4 <= len(first) * 3:
            return map(_Reprs().__getitem__, bits)
    return map(repr, column)


class _Table:
    """One shape's rows, column by column; column 0 is the time.

    Rows wait in ``pending`` and move into the columns a batch at a time:
    exact ``float`` values to ``array('d')``, exact ``int`` values that fit
    64 bits to ``array('q')``, anything else to a list.  A batch its column
    cannot hold turns that column into a list for good, so every value reads
    back with its own type and ``repr`` (``1`` vs ``1.0`` vs ``True``).
    """

    __slots__ = ("shape", "number", "columns", "pending")

    def __init__(self, shape: Type[TraceRecord], number: int) -> None:
        self.shape = shape
        self.number = number  # what the trace order stores
        self.columns: List[Any] = []
        self.pending: List[Sequence[Any]] = []

    def __len__(self) -> int:
        return len(self.pending) + sum(map(len, self.columns[:1]))

    def flush(self) -> None:
        batch, self.pending = self.pending, []
        columns = self.columns
        for position, values in enumerate(zip(*batch)):
            kinds = {*map(type, values)}
            if len(columns) == position:  # the first batch picks the kind
                columns.append(array("d") if kinds == {float} else
                               array("q") if kinds == {int} else [])
            column = columns[position]
            if type(column) is array:
                code = column.typecode
                if kinds == {_KINDS[code]}:
                    try:
                        column.frombytes(
                            _PACK[code](*values) if len(values) == _BATCH
                            else array(code, values).tobytes())
                        continue
                    except (OverflowError, struct.error):  # beyond 64 bits
                        pass
                # A new list: a snapshot holding the array keeps reading it.
                column = columns[position] = list(column)
            column.extend(values)


class _Rows(Sequence[TraceRecord]):
    """Rows of one table as a query found them: ``rows`` is a ``range`` from
    0 or an array of row numbers, and the columns are the ones of then."""

    __slots__ = ("shape", "columns", "rows")

    def __init__(self, table: _Table, rows: Sequence[int]) -> None:
        self.shape, self.columns, self.rows = (table.shape,
                                               tuple(table.columns), rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, position: Any) -> Any:
        row = self.rows[position]
        return tuple.__new__(self.shape,
                             [column[row] for column in self.columns])

    def __iter__(self) -> Iterator[TraceRecord]:
        rows = self.rows
        return map(tuple.__new__, repeat(self.shape), zip(*[
            islice(column, len(rows)) if type(rows) is range
            else map(column.__getitem__, rows) for column in self.columns]))


class Selection(Sequence[TraceRecord]):
    """The records a :meth:`Tracer.select` call found, as they were then.

    A read-only sequence that builds each record from the tracer's columns
    as it is read, so holding one costs row numbers, not records.  Records
    stored after the call, and a later :meth:`Tracer.clear`, never change
    it.  ``==`` compares element-wise with lists and selections; ``+`` with
    another selection is a selection, with a list a list.
    """

    __slots__ = ("_parts", "_ends")

    def __init__(self, parts: Iterable[Sequence[TraceRecord]] = ()) -> None:
        self._parts = tuple(part for part in parts if len(part))
        self._ends = list(accumulate(map(len, self._parts)))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[position]
                    for position in range(*index.indices(len(self)))]
        position, size = operator.index(index), len(self)
        if not -size <= position < size:
            raise IndexError("selection index out of range")
        position %= size
        part = bisect_right(self._ends, position)
        return self._parts[part][
            position - (self._ends[part - 1] if part else 0)]

    def __iter__(self) -> Iterator[TraceRecord]:
        return chain.from_iterable(self._parts)

    def __add__(self, other: object) -> Any:
        if isinstance(other, Selection):
            return Selection(self._parts + other._parts)
        return [*self, *other] if isinstance(other, list) else NotImplemented

    def __radd__(self, other: object) -> Any:
        return [*other, *self] if isinstance(other, list) else NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Selection, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Selection({list(self)!r})"

    def __reduce__(self) -> Tuple[Any, ...]:
        return Selection, ((list(self),),)


class Tracer:
    """Append-only store of :class:`TraceRecord` rows.

    Tracing can be narrowed to a set of categories with :meth:`enable_only`
    to keep long benchmark runs cheap; by default everything is kept.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        #: shape -> its table, in table-number order.
        self._tables: Dict[Type[TraceRecord], _Table] = {}
        #: The table number of every stored record, in stored order.
        self._order = array("B")
        #: category -> its tables, both in first-recorded order.
        self._by_category: Dict[str, List[_Table]] = {}
        #: (category, field) -> (value -> rows, rows covered), built and
        #: caught up by queries only; no groups once a value is unhashable.
        self._field_indexes: Dict[Tuple[str, str],
                                  Tuple[Optional[Dict[Any, array]], int]] = {}
        self._enabled: Optional[frozenset] = None  # None means "all"
        self._listeners: List[Callable[[TraceRecord], None]] = []
        #: category -> "a record of this category goes somewhere" (stored
        #: or delivered to a listener).  Invalidated whenever the filter or
        #: the listener set changes; see :meth:`enabled`.
        self._live_cache: Dict[str, bool] = {}

    def enabled(self, category: str) -> bool:
        """Whether a record of ``category`` would be stored or observed.

        O(1) after the first query per category.  Hot call sites use this
        to skip building the record's fields when the category is dead::

            if trace.enabled("queue_depth"):
                trace.record("queue_depth", depth=len(self._queue), ...)

        Skipping is behaviour-identical: :meth:`record` drops exactly the
        records for which this returns ``False``.
        """
        live = self._live_cache.get(category)
        if live is None:
            live = (bool(self._listeners) or self._enabled is None
                    or category in self._enabled)
            self._live_cache[category] = live
        return live

    def record(self, category: str, **fields: Any) -> None:
        """Append one record stamped with the current virtual time.

        Subscribed listeners are notified of *every* record, including ones
        the :meth:`enable_only` filter keeps out of storage — online
        monitors must not go blind just because a long run narrows what the
        post-hoc collectors keep.
        """
        live = self._live_cache.get(category)
        if live is None:
            live = (bool(self._listeners) or self._enabled is None
                    or category in self._enabled)
            self._live_cache[category] = live
        if not live:
            return
        keys = tuple(fields)
        shape = _SHAPES.get((category, keys)) or _new_shape(category, keys)
        row = (self._clock(), *fields.values())
        if self._listeners:
            record = tuple.__new__(shape, row)
            for listener in self._listeners:
                listener(record)
        if (self._enabled is None or category in self._enabled):
            self._store(shape, row)

    def ingest(self, record: TraceRecord) -> None:
        """Store a pre-built record, bypassing clock, filter, and listeners.

        For tests and replay tooling that assemble traces by hand; normal
        model code uses :meth:`record`.  The record's values are stored,
        not the record.
        """
        self._store(type(record), record)

    def _store(self, shape: Type[TraceRecord], row: Sequence[Any]) -> None:
        table = self._tables.get(shape)
        if table is None:
            number = len(self._tables)
            if number in _WIDER_ORDER:
                self._order = array(_WIDER_ORDER[number], self._order)
            table = self._tables[shape] = _Table(shape, number)
            self._by_category.setdefault(shape.category, []).append(table)
        pending = table.pending
        pending.append(row)
        if len(pending) == _BATCH:
            table.flush()
        self._order.append(table.number)

    def _flush(self) -> None:
        """Move every pending row into its columns: reads see columns only."""
        for table in self._tables.values():
            if table.pending:
                table.flush()

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Start delivering every record to ``listener`` as it is produced."""
        if listener not in self._listeners:
            self._listeners.append(listener)
            self._live_cache.clear()

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        # Equality, not identity: each access to a bound method (the usual
        # listener shape) builds a fresh object, so `is` would never match.
        self._listeners = [known for known in self._listeners
                           if known != listener]
        self._live_cache.clear()

    def enable_only(self, *categories: str) -> None:
        """Keep only the given categories from now on (empty = keep nothing)."""
        self._enabled = frozenset(categories)
        self._live_cache.clear()

    def enable_all(self) -> None:
        """Resume keeping every category (the default)."""
        self._enabled = None
        self._live_cache.clear()

    def select(self, category: str, **matches: Any) -> Selection:
        """Records of ``category`` whose fields equal all of ``matches``.

        A field a record lacks matches ``None``.  The result is a
        :class:`Selection` in stored order, unaffected by later records.
        Never touches another category's records; a single-field query
        costs O(result) once the (category, field) index exists, anything
        else O(category size).
        """
        tables = self._by_category.get(category)
        if tables is None:
            return Selection()
        self._flush()
        found: Sequence[TraceRecord]
        if len(tables) == 1:
            table, = tables
            if len(matches) == 1:
                (key, value), = matches.items()
                rows = self._indexed(category, table, key, value)
                if rows is not None:
                    return Selection((_Rows(table, rows),))
            found = _Rows(table, range(len(table)))
        else:  # several key orders, which is rare: scan the trace
            found = [record for record in self if record.category == category]
        if matches:
            found = [record for record in found
                     if all(record.get(key) == value
                            for key, value in matches.items())]
        return Selection((found,))

    def _indexed(self, category: str, table: _Table, key: str,
                 value: Any) -> Optional[Sequence[int]]:
        """``table``'s rows with ``record.get(key) == value``, from the hash
        index — or None when only a scan gives ``==`` semantics."""
        try:
            hash(value)
        except TypeError:
            return None
        if value != value:
            # NaN equals nothing, yet a dict finds it by identity.
            return None
        groups, start = self._field_indexes.get((category, key), ({}, 0))
        size = len(table)
        if groups is not None and start < size:
            position = table.shape._index.get(key)
            values = (repeat(None, size - start) if position is None
                      else islice(table.columns[position], start, size))
            try:
                for row, field_value in enumerate(values, start):
                    groups.setdefault(field_value, array("q")).append(row)
            except TypeError:
                # An unhashable field value may still equal a hashable
                # query ({1} == frozenset({1})): scan this pair from now on.
                groups = None
            self._field_indexes[(category, key)] = (groups, size)
        if groups is None:
            return None
        group = groups.get(value)
        return range(0) if group is None else group[:]

    def categories(self) -> Dict[str, int]:
        """Histogram of category -> record count (diagnostics)."""
        return {category: sum(map(len, tables))
                for category, tables in self._by_category.items()}

    def digest(self) -> str:
        """SHA-256 hex digest of every stored record.

        Two runs of the same model with the same seed (and the same storage
        filter) produce identical digests; the determinism tests and the
        chaos reports rely on this as a cheap whole-trace fingerprint.
        """
        self._flush()
        hasher = hashlib.sha256()
        lines: List[Iterator[str]] = []
        for table in self._tables.values():
            parts: List[Iterator[str]] = []
            for glue, position in table.shape._layout:
                parts += repeat(glue), _reprs(table.columns[position])
            lines.append(map("".join, zip(*parts, repeat(table.shape._tail))))
        ordered = map(next, map(lines.__getitem__, self._order))
        while chunk := "".join(islice(ordered, 1024)):  # records per update
            hasher.update(chunk.encode())
        return hasher.hexdigest()

    def clear(self) -> None:
        # Drop the tables, never empty them: a Selection reads their columns.
        self._tables = {}
        self._order = array("B")
        self._by_category = {}
        self._field_indexes = {}

    def __iter__(self) -> Iterator[TraceRecord]:
        self._flush()
        records = [map(tuple.__new__, repeat(table.shape), zip(*table.columns))
                   for table in self._tables.values()]
        # Each table's records, taken in stored order up to the current end.
        return map(next, map(records.__getitem__, islice(self._order,
                                                         len(self))))

    def __len__(self) -> int:
        return len(self._order)
