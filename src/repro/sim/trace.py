"""Structured trace of simulation activity.

Model components record what happened (a job finished, a message was dropped,
an update was applied) as :class:`TraceRecord` rows.  The metrics collectors
and consistency checkers consume these rows after the run; tests assert on
them directly.  Online observers (the fault subsystem's invariant monitor)
:meth:`~Tracer.subscribe` instead and see every record as it is produced,
independently of the storage filter.

A record is one tuple ``(time, *values)`` whose class is its shape: one
:class:`TraceRecord` subclass per (category, key tuple), made once, holds the
category, key -> position and the compiled digest template.  ``fields`` is a
fresh dict per access: no listener or :meth:`Tracer.ingest` caller can
rewrite a stored record through it.

Storage is one append-only list plus a per-category view of it.  A
single-field equality query (``select("primary_write", object=3)``, what
every per-object collector issues) is answered from a hash index of that
category's records grouped by that field's value, built by the first query
that names the (category, field) pair and caught up at each later one;
recording never touches it.  Multi-field queries, unhashable values, and
fields holding an unhashable value fall back to scanning the category — the
reference the index is tested against.  Iteration order, result order,
:meth:`Tracer.digest` and the filter semantics are those of a plain scan.

Dead categories cost (almost) nothing: :meth:`Tracer.enabled` answers
"would a record of this category go anywhere?" from a per-category cache,
so hot call sites can guard with ``if trace.enabled("tick"):`` and skip
building the keyword-argument dict, the clock call, and the record entirely
when a run has narrowed the filter.  The guard is digest-neutral by
construction — it only ever skips records that :meth:`record` would have
dropped on arrival.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from itertools import islice
from types import MappingProxyType
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List,
                    Mapping, Optional, Sequence, Tuple, Type, cast)

#: (category, key tuple) -> its one shape class: a process-wide intern table.
_SHAPES: Dict[Tuple[str, Tuple[str, ...]], Type[TraceRecord]] = {}

_Timed = namedtuple("_Timed", "time")
#: The C-level tuple item descriptor ``namedtuple`` gives its fields.
_ItemGetter = type(vars(_Timed)["time"])


def _literal(text: str) -> str:
    """``repr(text)`` with its braces escaped for a ``str.format`` template."""
    return repr(text).replace("{", "{{").replace("}", "}}")


class TraceRecord(tuple):
    """One traced occurrence at virtual time :attr:`time`: the tuple
    ``(time, *values)``, an instance of its (category, key tuple)'s class."""

    __slots__ = ()
    #: Field 0, by the C item getter (a ``property`` is ~5x slower).
    time: float = _ItemGetter(0, None)
    # Set per shape: key -> tuple position (in key order), and the digest
    # line ``repr((time, category, sorted(fields.items())))`` as a template.
    category: str
    _index: Dict[str, int]
    _template: str

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

    pairs = ", ".join(f"({_literal(key)}, {{{index[key]}!r}})"
                      for key in sorted(keys))
    return _SHAPES.setdefault((category, keys), cast("Type[TraceRecord]", type(
        "TraceRecord", (TraceRecord,), {
            "__slots__": (), "__getitem__": __getitem__, "get": get,
            "category": category, "_index": index,
            "_template": f"({{0!r}}, {_literal(category)}, [{pairs}])",
            **{names[key]: _ItemGetter(index[key], None) for key in keys}})))


class _FieldIndex:
    """One category's records grouped by the value of one field."""

    __slots__ = ("groups", "absorbed")

    def __init__(self) -> None:
        #: field value (``None`` where the field is missing) -> records in
        #: stored order; ``None`` once a record held an unhashable value,
        #: after which the pair is always answered by scanning.
        self.groups: Optional[Dict[Any, List[TraceRecord]]] = {}
        #: How many of the category's records ``groups`` already covers.
        self.absorbed = 0


class Tracer:
    """Append-only store of :class:`TraceRecord` rows.

    Tracing can be narrowed to a set of categories with :meth:`enable_only`
    to keep long benchmark runs cheap; by default everything is kept.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._records: List[TraceRecord] = []
        #: Per-category view of ``_records`` (same record objects, same
        #: relative order); keys appear in first-recorded order.
        self._by_category: Dict[str, List[TraceRecord]] = {}
        #: (category, field) -> index, for the pairs :meth:`select` was
        #: asked about.  Built and extended by queries only.
        self._field_indexes: Dict[Tuple[str, str], _FieldIndex] = {}
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
        record = tuple.__new__(shape, (self._clock(), *fields.values()))
        for listener in self._listeners:
            listener(record)
        if (self._enabled is None or category in self._enabled):
            self.ingest(record)

    def ingest(self, record: TraceRecord) -> None:
        """Store a pre-built record, bypassing clock, filter, and listeners.

        For tests and replay tooling that assemble traces by hand; normal
        model code uses :meth:`record`.  Going through this method (never
        ``_records`` directly) keeps the category index coherent.
        """
        self._records.append(record)
        bucket = self._by_category.get(record.category)
        if bucket is None:
            bucket = self._by_category[record.category] = []
        bucket.append(record)

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

    def select(self, category: str, **matches: Any) -> List[TraceRecord]:
        """Records of ``category`` whose fields equal all of ``matches``.

        A field a record lacks matches ``None``.  The result is a fresh
        list in stored order.  Never touches another category's records;
        a single-field query costs O(result) once the (category, field)
        index exists, anything else O(category size).
        """
        bucket = self._by_category.get(category)
        if not bucket:
            return []
        if not matches:
            return list(bucket)
        if len(matches) == 1:
            (key, value), = matches.items()
            group = self._indexed(category, bucket, key, value)
            if group is not None:
                return list(group)
        return [
            record for record in bucket
            if all(record.get(key) == value for key, value in matches.items())
        ]

    def _indexed(self, category: str, bucket: List[TraceRecord], key: str,
                 value: Any) -> Optional[Sequence[TraceRecord]]:
        """``bucket``'s records with ``record.get(key) == value``, from the
        hash index — or None when only a scan gives ``==`` semantics."""
        try:
            hash(value)
        except TypeError:
            return None
        if value != value:
            # NaN equals nothing, yet a dict finds it by identity.
            return None
        index = self._field_indexes.get((category, key))
        if index is None:
            index = self._field_indexes[(category, key)] = _FieldIndex()
        groups = index.groups
        if groups is None:
            return None
        if index.absorbed < len(bucket):
            try:
                for record in bucket[index.absorbed:]:
                    field_value = record.get(key)
                    group = groups.get(field_value)
                    if group is None:
                        groups[field_value] = [record]
                    else:
                        group.append(record)
            except TypeError:
                # An unhashable field value may still equal a hashable
                # query ({1} == frozenset({1})): scan this pair from now on.
                index.groups = None
                return None
            index.absorbed = len(bucket)
        return groups.get(value, ())

    def categories(self) -> Dict[str, int]:
        """Histogram of category -> record count (diagnostics)."""
        return {category: len(bucket)
                for category, bucket in self._by_category.items()}

    def digest(self) -> str:
        """SHA-256 hex digest of every stored record.

        Two runs of the same model with the same seed (and the same storage
        filter) produce identical digests; the determinism tests and the
        chaos reports rely on this as a cheap whole-trace fingerprint.
        """
        hasher = hashlib.sha256()
        records, chunk = self._records, 1024  # records per hasher.update
        for start in range(0, len(records), chunk):
            hasher.update("".join([
                type(record)._template.format(*record)
                for record in records[start:start + chunk]]).encode())
        return hasher.hexdigest()

    def clear(self) -> None:
        self._records.clear()
        self._by_category.clear()
        self._field_indexes.clear()

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)
