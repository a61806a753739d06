"""Unit tests for the tracer."""

import dataclasses
import gc
import hashlib
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecord, Tracer


def test_records_are_timestamped():
    sim = Simulator()
    sim.schedule(2.0, lambda: sim.trace.record("tick", n=1))
    sim.run(until=5.0)
    records = sim.trace.select("tick")
    assert len(records) == 1
    assert records[0].time == 2.0
    assert records[0]["n"] == 1


def test_select_filters_on_fields():
    sim = Simulator()
    sim.trace.record("write", object=1)
    sim.trace.record("write", object=2)
    sim.trace.record("write", object=1)
    assert len(sim.trace.select("write", object=1)) == 2
    assert len(sim.trace.select("write", object=3)) == 0


def test_get_with_default():
    sim = Simulator()
    sim.trace.record("x", a=1)
    record = sim.trace.select("x")[0]
    assert record.get("missing") is None
    assert record.get("missing", 7) == 7


def test_enable_only_drops_other_categories():
    sim = Simulator()
    sim.trace.enable_only("keep")
    sim.trace.record("keep", n=1)
    sim.trace.record("drop", n=2)
    assert len(sim.trace) == 1
    assert sim.trace.select("drop") == []


def test_enable_all_restores_recording():
    sim = Simulator()
    sim.trace.enable_only("keep")
    sim.trace.record("drop")
    sim.trace.enable_all()
    sim.trace.record("drop")
    assert len(sim.trace.select("drop")) == 1


def test_enable_only_empty_drops_everything():
    sim = Simulator()
    sim.trace.enable_only()
    sim.trace.record("anything")
    assert len(sim.trace) == 0


def test_categories_histogram():
    sim = Simulator()
    for _ in range(3):
        sim.trace.record("a")
    sim.trace.record("b")
    assert sim.trace.categories() == {"a": 3, "b": 1}


def test_clear():
    sim = Simulator()
    sim.trace.record("a")
    sim.trace.clear()
    assert len(sim.trace) == 0


def test_iteration_yields_in_order():
    sim = Simulator()
    sim.trace.record("a", i=0)
    sim.trace.record("b", i=1)
    assert [record["i"] for record in sim.trace] == [0, 1]


# ---------------------------------------------------------------------------
# Index coherence: the per-category index must be observationally identical
# to the original scan implementation.
# ---------------------------------------------------------------------------


def reference_select(trace, category, **matches):
    """The pre-index implementation: scan every stored record."""
    return [
        record for record in trace
        if record.category == category
        and all(record.get(k) == v for k, v in matches.items())
    ]


def reference_digest(trace):
    """The pre-index digest, computed independently from iteration order."""
    hasher = hashlib.sha256()
    for record in trace:
        canonical = (record.time, record.category,
                     sorted(record.fields.items()))
        hasher.update(repr(canonical).encode())
    return hasher.hexdigest()


def populated_tracer(n=3_000, seed=99):
    rng = random.Random(seed)
    clock = {"now": 0.0}
    trace = Tracer(clock=lambda: clock["now"])
    categories = ("write", "apply", "ping", "crash")
    for _ in range(n):
        clock["now"] += rng.uniform(0.0, 0.01)
        trace.record(rng.choice(categories),
                     object=rng.randrange(8), seq=rng.randrange(100))
    return trace


def test_indexed_select_matches_scan_semantics():
    trace = populated_tracer()
    for category in ("write", "apply", "ping", "crash", "never_recorded"):
        assert trace.select(category) == reference_select(trace, category)
        for obj in range(8):
            assert (trace.select(category, object=obj)
                    == reference_select(trace, category, object=obj))
    assert (trace.select("write", object=1, seq=5)
            == reference_select(trace, "write", object=1, seq=5))


def test_indexed_digest_byte_identical_to_scan():
    trace = populated_tracer()
    assert trace.digest() == reference_digest(trace)
    # And deterministic across independent rebuilds.
    assert populated_tracer().digest() == trace.digest()


def test_categories_match_stored_records():
    trace = populated_tracer(n=500)
    expected = {}
    for record in trace:
        expected[record.category] = expected.get(record.category, 0) + 1
    assert trace.categories() == expected


def test_clear_resets_index():
    trace = populated_tracer(n=100)
    trace.clear()
    assert len(trace) == 0
    assert trace.categories() == {}
    assert trace.select("write") == []
    trace.record("write", object=0)
    assert len(trace.select("write")) == 1
    assert trace.categories() == {"write": 1}


def test_enable_only_keeps_index_coherent():
    clock = {"now": 0.0}
    trace = Tracer(clock=lambda: clock["now"])
    trace.record("keep", n=1)
    trace.record("drop", n=2)
    trace.enable_only("keep")
    trace.record("keep", n=3)
    trace.record("drop", n=4)  # filtered: must not reach the index either
    assert [r["n"] for r in trace.select("keep")] == [1, 3]
    assert [r["n"] for r in trace.select("drop")] == [2]
    assert trace.categories() == {"keep": 2, "drop": 1}
    assert trace.digest() == reference_digest(trace)


def test_ingest_bypasses_filter_and_updates_index():
    trace = Tracer(clock=lambda: 0.0)
    trace.enable_only("kept")
    trace.ingest(TraceRecord(1.0, "anything", {"n": 1}))
    assert len(trace) == 1
    assert trace.select("anything")[0]["n"] == 1
    assert trace.categories() == {"anything": 1}


def test_select_returns_copy_not_index_bucket():
    trace = Tracer(clock=lambda: 0.0)
    trace.record("a", n=1)
    rows = trace.select("a")
    rows.append("garbage")
    assert len(trace.select("a")) == 1


# ---------------------------------------------------------------------------
# enabled(): the dead-category fast path
# ---------------------------------------------------------------------------


def test_enabled_tracks_the_storage_filter():
    trace = Tracer(clock=lambda: 0.0)
    assert trace.enabled("anything")  # default: everything is kept
    trace.enable_only("kept")
    assert trace.enabled("kept")
    assert not trace.enabled("dropped")
    trace.enable_all()
    assert trace.enabled("dropped")


def test_enabled_guard_is_digest_neutral():
    """Skipping a record when enabled() is False must leave the trace —
    and therefore the digest — exactly as if record() had been called."""

    def run(guarded):
        trace = Tracer(clock=lambda: 0.0)
        trace.enable_only("kept")
        for index in range(50):
            category = "kept" if index % 5 == 0 else "dropped"
            if guarded:
                if trace.enabled(category):
                    trace.record(category, n=index)
            else:
                trace.record(category, n=index)
        return trace.digest(), len(trace)

    assert run(guarded=True) == run(guarded=False)


def test_subscribe_revives_dead_categories():
    # A listener must see *every* record, so a cached "dead" decision has
    # to be invalidated the moment one subscribes — and restored when the
    # last one leaves.
    trace = Tracer(clock=lambda: 0.0)
    trace.enable_only("kept")
    assert not trace.enabled("dropped")
    seen = []
    trace.subscribe(seen.append)
    assert trace.enabled("dropped")
    trace.record("dropped", n=1)
    assert [record.category for record in seen] == ["dropped"]
    assert len(trace) == 0  # delivered to the listener, still not stored
    trace.unsubscribe(seen.append)
    assert not trace.enabled("dropped")


def test_enable_only_invalidates_cached_decisions():
    trace = Tracer(clock=lambda: 0.0)
    assert trace.enabled("a")
    trace.enable_only("b")
    assert not trace.enabled("a")
    trace.enable_only("a")
    assert trace.enabled("a")
    trace.record("a", n=1)
    assert len(trace) == 1


# ---------------------------------------------------------------------------
# The (category, field) hash index behind single-field selects: every answer
# must be the scan's, whatever was recorded, queried, cleared or filtered
# before it, and whatever the values do to a hash table.
# ---------------------------------------------------------------------------

CATEGORIES = ("write", "apply")
FIELDS = ("object", "seq", "tag")
#: Equal-but-differently-typed keys (1 / 1.0 / True), None (what a missing
#: field matches), look-alike strings, tuples, and a NaN (equal to nothing,
#: yet found by identity in a dict).
NAN = float("nan")
HASHABLE = st.sampled_from([0, 1, 1.0, True, False, None, "1", "a", (1, 2),
                            (1.0, 2.0), NAN, frozenset({1})])
#: Values no dict can key — one of which *equals* a hashable frozenset.
UNHASHABLE = st.sampled_from([[1, 2], [], {1}])
#: Only ``tag`` ever holds an unhashable value, and not often: a field that
#: does is scanned from then on, which is the reference itself.
FIELD_DICTS = st.fixed_dictionaries({}, optional={
    "object": HASHABLE, "seq": HASHABLE,
    "tag": st.one_of(HASHABLE, HASHABLE, HASHABLE, UNHASHABLE)})
QUERIES = st.dictionaries(st.sampled_from(FIELDS),
                          st.one_of(HASHABLE, HASHABLE, UNHASHABLE),
                          max_size=2)
RECORD = st.tuples(st.just("record"), st.sampled_from(CATEGORIES),
                   FIELD_DICTS)
INGEST = st.tuples(st.just("ingest"), st.sampled_from(CATEGORIES),
                   FIELD_DICTS)
SELECT = st.tuples(st.just("select"), st.sampled_from(CATEGORIES), QUERIES)
#: Mostly storing and asking; now and then the trace is wiped or narrowed.
OPERATIONS = st.one_of(
    RECORD, RECORD, RECORD, INGEST, INGEST, SELECT, SELECT, SELECT, SELECT,
    st.tuples(st.just("clear")),
    st.tuples(st.just("enable_only"),
              st.lists(st.sampled_from(CATEGORIES), max_size=2)),
    st.tuples(st.just("enable_all")),
)


def assert_select_is_the_scan(trace, category, matches):
    expected = reference_select(trace, category, **matches)
    rows = trace.select(category, **matches)
    assert len(rows) == len(expected)
    assert all(row is want for row, want in zip(rows, expected))
    # A fresh list each time: mutating one answer must not reach the next.
    rows.append(None)
    again = trace.select(category, **matches)
    assert again is not rows
    assert len(again) == len(expected)


@given(st.lists(OPERATIONS, min_size=5, max_size=60))
@settings(max_examples=300, deadline=None)
def test_select_equals_scan_under_any_interleaving(operations):
    clock = {"now": 0.0}
    trace = Tracer(clock=lambda: clock["now"])
    asked = []
    for operation in operations:
        clock["now"] += 0.5
        kind, arguments = operation[0], operation[1:]
        if kind == "record":
            category, fields = arguments
            trace.record(category, **fields)
        elif kind == "ingest":
            category, fields = arguments
            trace.ingest(TraceRecord(clock["now"], category, dict(fields)))
        elif kind == "select":
            asked.append(arguments)
            assert_select_is_the_scan(trace, *arguments)
        elif kind == "clear":
            trace.clear()
        elif kind == "enable_only":
            trace.enable_only(*arguments[0])
        else:
            trace.enable_all()
    # Every query again, now that later records have arrived behind it.
    for category, matches in asked:
        assert_select_is_the_scan(trace, category, matches)
    for category in CATEGORIES:
        for field in FIELDS:
            for value in (1, None, "a", (1, 2), [1], frozenset({1}), NAN):
                assert_select_is_the_scan(trace, category, {field: value})


def test_nan_matches_nothing_not_even_itself():
    trace = Tracer(clock=lambda: 0.0)
    trace.record("write", tag=NAN)
    assert len(trace.select("write", tag=1)) == 0  # builds the index
    assert trace.select("write", tag=NAN) == []


def test_unhashable_values_fall_back_to_the_scan():
    trace = Tracer(clock=lambda: 0.0)
    trace.record("write", tag=[1, 2])
    trace.record("write", tag={1})
    trace.record("write", tag=(1, 2))
    assert [r["tag"] for r in trace.select("write", tag=[1, 2])] == [[1, 2]]
    assert [r["tag"] for r in trace.select("write", tag=(1, 2))] == [(1, 2)]
    # A hashable query that an unhashable stored value equals.
    assert [r["tag"] for r in trace.select("write", tag=frozenset({1}))] \
        == [{1}]


def test_index_follows_records_stored_after_the_first_query():
    trace = Tracer(clock=lambda: 0.0)
    trace.record("write", object=1)
    assert len(trace.select("write", object=1)) == 1
    assert trace.select("write", object=2) == []
    trace.record("write", object=2)
    trace.ingest(TraceRecord(1.0, "write", {"object": 1}))
    trace.record("write")  # no `object` field: matches None
    assert len(trace.select("write", object=1)) == 2
    assert len(trace.select("write", object=2)) == 1
    assert len(trace.select("write", object=None)) == 1
    trace.clear()
    assert trace.select("write", object=1) == []
    trace.record("write", object=1.0)  # 1 == 1.0 == True
    assert len(trace.select("write", object=True)) == 1


# ---------------------------------------------------------------------------
# The compact record: a shape shared per (category, key tuple) plus a value
# tuple must be indistinguishable — record API and digest bytes — from the
# dict-backed record it replaced, which survives here as the reference.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DictBackedRecord:
    """The pre-shape record, kept as the reference the new one is held to."""

    time: float
    category: str
    fields: dict = dataclasses.field(default_factory=dict)

    def __getitem__(self, key):
        return self.fields[key]

    def get(self, key, default=None):
        return self.fields.get(key, default)


#: Names that would break a naive template: both templating escapes, both
#: quote characters (``repr`` switches delimiter on them), a backslash,
#: non-ASCII, and the empty string.
AWKWARD_NAMES = st.sampled_from([
    "plain", "a", "b", "%", "%r", "100%s", "%(time)r", "{", "}", "{0}",
    "{0!r}", "{{}}", "it's", 'say "hi"', "'\"", "back\\slash", "ключ", "鍵",
    "", " "])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), NAN, 1e-320,
                     0.1 + 0.2]),
    st.text(max_size=6), st.sampled_from(["%r", "{0}", "naïve", "日本"]))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3),
                            st.tuples(inner, inner)),
    max_leaves=6)
#: Insertion-ordered, so one category arrives under several key orders.
AWKWARD_FIELDS = st.lists(st.tuples(AWKWARD_NAMES, VALUES), max_size=5,
                          unique_by=lambda pair: pair[0]).map(dict)
ROWS = st.lists(st.tuples(st.floats(allow_nan=False), AWKWARD_NAMES,
                          AWKWARD_FIELDS), max_size=12)


@given(ROWS)
@settings(max_examples=300, deadline=None)
def test_compiled_digest_equals_reference_digest(rows):
    trace = Tracer(clock=lambda: 0.0)
    for time, category, fields in rows:
        trace.ingest(TraceRecord(time, category, fields))
        # The same category and keys again, in the opposite key order.
        trace.ingest(TraceRecord(time, category,
                                 dict(reversed(list(fields.items())))))
    assert trace.digest() == reference_digest(trace)
    assert trace.digest() == reference_digest(
        [DictBackedRecord(*row) for row in rows for _ in range(2)])


def test_digest_chunking_is_invisible():
    # digest() feeds the hasher 1024 records at a time: more than one chunk,
    # and not a whole number of them.
    trace = populated_tracer(n=2 * 1024 + 7)
    assert trace.digest() == reference_digest(trace)
    assert Tracer(clock=lambda: 0.0).digest() == reference_digest([])


@given(st.floats(allow_nan=False), AWKWARD_NAMES, AWKWARD_FIELDS,
       AWKWARD_NAMES)
@settings(max_examples=200, deadline=None)
def test_record_api_matches_dict_backed_reference(time, category, fields,
                                                  probe):
    record = TraceRecord(time, category, fields)
    reference = DictBackedRecord(time, category, dict(fields))
    assert (record.time, record.category) == (time, category)
    assert record.fields == reference.fields
    assert list(record.fields) == list(reference.fields)  # key order too
    for key in list(fields) + [probe]:
        assert record.get(key) is reference.get(key)
        assert record.get(key, probe) is reference.get(key, probe)
        if key in fields:
            assert record[key] is reference[key]
        else:
            with pytest.raises(KeyError) as raised:
                record[key]
            assert raised.value.args == (key,)
    assert repr(record) == repr(reference).replace("DictBackedRecord",
                                                   "TraceRecord")
    # == is the dict-backed one's: same time, category and field *set*.
    reordered = TraceRecord(time, category,
                            dict(reversed(list(fields.items()))))
    assert record == reordered
    assert record == TraceRecord(time, category, fields)
    assert record != TraceRecord(time, category, {**fields, "extra": 1})
    assert record != TraceRecord(time, category + "x", fields)
    assert record != (time, category, fields)
    # Not tuple's != either, which would compare the values in key order.
    assert not (record != reordered)
    assert record != (time, *fields.values())
    with pytest.raises(TypeError):
        hash(record)
    with pytest.raises(TypeError):
        record < reordered
    restored = pickle.loads(pickle.dumps(record))
    # Equal unless a NaN came back as a new object, as for the reference.
    assert (restored == record) == (
        pickle.loads(pickle.dumps(reference)) == reference)
    assert repr(restored) == repr(record)
    assert type(restored) is type(record)
    assert list(restored.fields) == list(fields)


def test_shapes_are_interned_per_category_and_key_order():
    first = TraceRecord(1.0, "read_served", {"object": 1, "server": "a"})
    again = TraceRecord(2.0, "read_served", {"object": 2, "server": "b"})
    swapped = TraceRecord(1.0, "read_served", {"server": "a", "object": 1})
    other = TraceRecord(1.0, "read_refused", {"object": 1, "server": "a"})
    assert type(first) is type(again)
    assert type(first) is not type(swapped)
    assert type(first) is not type(other)
    assert first == swapped
    assert TraceRecord(1.0, "bare").fields == {}


def test_stored_record_cannot_be_rewritten_through_fields():
    """Regression: ``fields`` used to be the live dict — a listener (or an
    ``ingest`` caller keeping its own) could rewrite the retained trace."""
    trace = Tracer(clock=lambda: 1.0)

    def vandal(record):
        record.fields["object"] = 99
        record.fields["injected"] = True

    trace.subscribe(vandal)
    trace.record("write", object=1)
    kept = {"object": 2}
    trace.ingest(TraceRecord(2.0, "write", kept))
    before = trace.digest()
    kept["object"] = 99
    kept["injected"] = True
    for record in trace:
        vandal(record)
    assert [record.fields for record in trace] == [{"object": 1},
                                                   {"object": 2}]
    assert [record["object"] for record in trace.select("write")] == [1, 2]
    assert trace.select("write", object=99) == []
    assert len(trace.select("write", object=2)) == 1
    assert trace.digest() == before == reference_digest(
        [DictBackedRecord(1.0, "write", {"object": 1}),
         DictBackedRecord(2.0, "write", {"object": 2})])


def test_retained_records_stay_compact():
    """Memory canary: a retained record costs what the bare tuple
    ``(time, *values)`` in two lists (the trace and its category view)
    costs — and stops doing so the day it grows a ``__dict__``, a second
    object or a per-record dict again."""
    # The field values and the interned shape exist before measuring and
    # are shared by every record of the category, so the bytes compared are
    # those of the representation alone.
    rows = [{"object": index % 8, "server": "rtpb/r0@host2",
             "service": "rtpb", "issue": index * 1e-3,
             "response": index * 1e-3 + 4e-4, "staleness": index * 1e-5,
             "bound": 0.2} for index in range(20_000)]
    assert not hasattr(TraceRecord(0.5, "read_served", rows[0]), "__dict__")

    def retained_bytes(build):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = build()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(kept[0]) == len(rows)
        return after - before

    def as_tracer():
        trace = Tracer(clock=lambda: 0.5)
        for row in rows:
            trace.record("read_served", **row)
        return trace, None

    def as_exact_tuples():
        stored, view = [], []
        for row in rows:
            record = (0.5, *row.values())
            stored.append(record)
            view.append(record)
        return stored, view

    compact = retained_bytes(as_tracer)
    reference = retained_bytes(as_exact_tuples)
    # CPython allocates every tuple-subclass instance one item longer than
    # it uses (a sentinel slot), and the tracer's own tables are a fixed
    # cost; the pre-tuple record paid ~50 B more per row.
    sentinel, tables = 8, 4096
    assert compact <= reference + sentinel * len(rows) + tables, (
        compact / len(rows), reference / len(rows))
