"""Unit tests for the tracer."""

import dataclasses
import gc
import hashlib
import itertools
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.trace import _BATCH, TraceRecord, Tracer, _Reprs, reads


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
    with pytest.raises(AttributeError):
        rows.append("garbage")  # a read-only snapshot, not the store
    trace.record("a", n=2)
    assert len(rows) == 1
    assert len(trace.select("a")) == 2


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
    # A listener that declares no categories must see *every* record, so a
    # cached "dead" decision has to be invalidated the moment one
    # subscribes — and restored when the last one leaves.
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


def test_a_declared_listener_gets_only_the_categories_it_reads():
    # Routing: a listener that declares its categories revives only those;
    # the rest stay dead for enabled() and record() alike.
    trace = Tracer(clock=lambda: 0.0)
    trace.enable_only("kept")
    seen = []

    @reads("watched", "kept")
    def listener(record):
        seen.append(record.category)

    trace.subscribe(listener)
    assert trace.enabled("kept") and trace.enabled("watched")
    assert not trace.enabled("dead")
    for category in ("kept", "watched", "dead"):
        trace.record(category, n=1)
    assert seen == ["kept", "watched"]
    assert [record.category for record in trace] == ["kept"]
    trace.enable_all()  # the cached routes follow the filter
    trace.record("dead", n=2)
    assert seen == ["kept", "watched"] and len(trace) == 2
    trace.enable_only()
    trace.record("kept", n=3)
    assert seen[-1] == "kept" and len(trace) == 2


def test_routes_follow_subscription_order_and_undeclared_listeners():
    trace = Tracer(clock=lambda: 0.0)
    trace.enable_only()
    seen = []

    class Monitor:
        def __init__(self, name):
            self.name = name

        @reads("a")
        def on_record(self, record):
            seen.append((self.name, record.category))

    def undeclared(record):
        seen.append(("all", record.category))

    first, second = Monitor("first"), Monitor("second")
    assert first.on_record.categories == frozenset({"a"})
    trace.subscribe(second.on_record)
    trace.subscribe(undeclared)
    trace.subscribe(first.on_record)
    assert trace.enabled("b")  # an undeclared listener reads everything
    trace.record("a")
    trace.record("b")
    assert seen == [("second", "a"), ("all", "a"), ("first", "a"),
                    ("all", "b")]
    trace.unsubscribe(undeclared)
    assert not trace.enabled("b")
    trace.unsubscribe(second.on_record)  # a fresh bound method, still equal
    seen.clear()
    trace.record("a")
    trace.record("b")
    assert seen == [("first", "a")]
    assert len(trace) == 0


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


def exact(records):
    """Each record as its time, category, key order and every value's type
    and ``repr``: what telling two stores apart needs, NaN included (a
    stored record is built anew at each read, so ``is`` says nothing)."""
    return [(type(record.time), repr(record.time), record.category,
             [(key, type(value), repr(value))
              for key, value in record.fields.items()])
            for record in records]


def assert_select_is_the_scan(trace, category, matches):
    expected = reference_select(trace, category, **matches)
    rows = trace.select(category, **matches)
    assert len(rows) == len(expected)
    assert exact(rows) == exact(expected)
    # Every call answers anew, and an answer cannot be written to.
    again = trace.select(category, **matches)
    assert again is not rows
    assert exact(again) == exact(expected)
    assert not hasattr(rows, "append")


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


#: Columns of 600+ rows each, so the digest meets full batches, packed
#: columns and its per-column repr memo.  Each maps a row number to the
#: column's value there.
SCALE_ROWS = 700
SCALE_COLUMNS = {
    # Few bit patterns, and the signed zero, nan, inf and a subnormal among
    # them: a memo keyed by value would print 0.0 for -0.0.
    "float_specials": lambda row: (0.0, -0.0, NAN, math.inf, -math.inf,
                                   1e-320, 0.1 + 0.2)[row % 7],
    # Packed as 64-bit ints for two batches, then a list for good.
    "int_outgrows_64_bits": lambda row: row % 5 if row < 512 else 2 ** 70,
    # A list column from the first batch: every value keeps its own repr.
    "mixed_numbers": lambda row: (1, 1.0, True)[row % 3],
    # Repeats in batch 1 (the memo is taken), all distinct after it (the
    # memo stops growing and every miss still renders right).
    "few_then_distinct": lambda row: (row % 4 * 0.25 if row < 256
                                      else row / 7.0),
    "distinct_floats": lambda row: row * 1e-3 + 1e-9,
}


@pytest.mark.parametrize("column", sorted(SCALE_COLUMNS))
def test_digest_at_scale_equals_reference_digest(column):
    # Each row is recorded under both key orders of one shape and once as
    # a shape with no keys, whose line has no field glue at all; the times
    # repeat, so the time column takes the memo too.
    value = SCALE_COLUMNS[column]
    trace, reference = Tracer(clock=lambda: 0.0), []
    for row in range(SCALE_ROWS):
        time = row // 100 * 0.5
        for category, fields in (("scaled", {"v": value(row), "n": row}),
                                 ("scaled", {"n": row, "v": value(row)}),
                                 ("no_keys", {})):
            trace.ingest(TraceRecord(time, category, fields))
            reference.append(DictBackedRecord(time, category, fields))
    assert trace.digest() == reference_digest(reference)
    assert trace.digest() == reference_digest(trace)


def test_digest_renders_each_repeated_float_pattern_once(monkeypatch):
    rendered = []
    missing = _Reprs.__missing__

    def counted(memo, bits):
        rendered.append(bits)
        return missing(memo, bits)

    monkeypatch.setattr(_Reprs, "__missing__", counted)
    ticks = itertools.count()  # distinct times: no memo for column 0
    trace = Tracer(clock=lambda: next(ticks) * 0.5)
    for row in range(SCALE_ROWS):
        trace.record("special", v=SCALE_COLUMNS["float_specials"](row))
    assert trace.digest() == reference_digest(trace)
    # Seven patterns, seven renderings: -0.0 and 0.0 are two of them.
    assert len(rendered) == len(set(rendered)) == 7
    rendered.clear()
    trace = Tracer(clock=lambda: next(ticks) * 0.5)
    for row in range(3 * _BATCH):
        trace.record("spread", v=SCALE_COLUMNS["few_then_distinct"](row))
    assert trace.digest() == reference_digest(trace)
    assert len(rendered) == 4 + 2 * _BATCH  # every later value is new


def test_digest_holds_no_whole_column_copy():
    """Memory canary: the digest memo and its bit view never copy, set or
    memoise a whole column — 200k distinct floats after a repetitive first
    batch peak well under what any of those would take (~6-25 MB)."""
    trace = Tracer(clock=lambda: 0.0)
    for row in range(200_000):
        trace.record("spread", v=row % 2 * 0.5 if row < _BATCH else row / 7.0)
    trace.digest()  # shapes and columns settled before measuring
    gc.collect()
    tracemalloc.start()
    try:
        trace.digest()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


# ---------------------------------------------------------------------------
# The columnar store: a tracer keeps each shape's values in typed columns
# and answers with snapshots that build records as they are read.  It must
# be indistinguishable from a plain store of dict-backed rows.
# ---------------------------------------------------------------------------


class RowStore:
    """The reference: every stored row as a dict-backed record, in stored
    order, scanned for every answer."""

    def __init__(self):
        self.rows = []
        self.kept = None  # None means "all"

    def record(self, time, category, fields):
        if self.kept is None or category in self.kept:
            self.ingest(time, category, fields)

    def ingest(self, time, category, fields):
        self.rows.append(DictBackedRecord(time, category, dict(fields)))

    def select(self, category, **matches):
        return [row for row in self.rows if row.category == category
                and all(row.get(key) == value
                        for key, value in matches.items())]

    def categories(self):
        counts = {}
        for row in self.rows:
            counts[row.category] = counts.get(row.category, 0) + 1
        return counts


#: Values that put a column through every kind change: int then float,
#: ``True`` into an int column, past 64 bits, None, signed zero, inf, NaN,
#: str and tuple — and their look-alikes, which must keep their own repr.
COLUMN_VALUES = st.one_of(
    st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
    st.sampled_from([None, -0.0, 0.0, 0, False, float("inf"), NAN, 2 ** 70,
                     2 ** 63, 2 ** 63 - 1, -2 ** 63, -2 ** 63 - 1, "1", "",
                     (1, 2.0), (), 1, 1.0, True]))
#: One shape mostly, now and then a second key order of the same category.
COLUMN_FIELDS = st.one_of(
    st.fixed_dictionaries({"object": COLUMN_VALUES, "seq": COLUMN_VALUES}),
    st.fixed_dictionaries({"seq": COLUMN_VALUES, "object": COLUMN_VALUES}))
COLUMN_QUERIES = st.dictionaries(
    st.sampled_from(("object", "seq", "absent")),
    st.one_of(COLUMN_VALUES, st.just([1, 2])), max_size=2)
COLUMN_OPERATIONS = st.one_of(
    st.tuples(st.just("record"), st.sampled_from(CATEGORIES), COLUMN_FIELDS),
    st.tuples(st.just("ingest"), st.sampled_from(CATEGORIES), COLUMN_FIELDS),
    # A run of one value long enough to fill a whole batch of a column.
    st.tuples(st.just("burst"), st.sampled_from(CATEGORIES), COLUMN_VALUES,
              st.integers(1, 300)),
    st.tuples(st.just("select"), st.sampled_from(CATEGORIES + ("none",)),
              COLUMN_QUERIES),
    st.tuples(st.just("clear")),
    st.tuples(st.just("enable_only"),
              st.lists(st.sampled_from(CATEGORIES), max_size=2)),
    st.tuples(st.just("enable_all")),
)


@given(st.lists(COLUMN_OPERATIONS, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_columnar_tracer_equals_a_row_store(operations):
    clock = {"now": 0.0}
    trace = Tracer(clock=lambda: clock["now"])
    reference = RowStore()
    held = []  # (selection, what the reference answered then)
    for operation in operations:
        clock["now"] += 0.25
        kind, arguments = operation[0], operation[1:]
        if kind == "record":
            category, fields = arguments
            trace.record(category, **fields)
            reference.record(clock["now"], category, fields)
        elif kind == "ingest":
            category, fields = arguments
            trace.ingest(TraceRecord(clock["now"], category, fields))
            reference.ingest(clock["now"], category, fields)
        elif kind == "burst":
            category, value, count = arguments
            for seq in range(count):
                trace.record(category, object=value, seq=seq)
                reference.record(clock["now"], category,
                                 {"object": value, "seq": seq})
        elif kind == "select":
            category, matches = arguments
            answer = trace.select(category, **matches)
            expected = reference.select(category, **matches)
            assert exact(answer) == exact(expected)
            held.append((answer, exact(expected)))
        elif kind == "clear":
            trace.clear()
            reference.rows = []
        elif kind == "enable_only":
            trace.enable_only(*arguments[0])
            reference.kept = set(arguments[0])
        else:
            trace.enable_all()
            reference.kept = None
    assert len(trace) == len(reference.rows)
    assert exact(trace) == exact(reference.rows)
    assert trace.categories() == reference.categories()
    assert trace.digest() == reference_digest(reference.rows)
    # Snapshots: later records and clear() never reach a held answer.
    for answer, expected in held:
        assert exact(answer) == expected
        assert len(answer) == len(expected)


@pytest.mark.parametrize("values", [
    [1, 2.0], [1.0, 2], [1, True], [True, 1], [1.0, True], [2 ** 70, 1],
    [1, 2 ** 70], [-2 ** 63 - 1], [1, None], [None, 1.0], [0.0, -0.0],
    [1.0, float("inf"), NAN], [1, "1"], ["1", (1,)], [1.0, (1.0,)],
], ids=repr)
@pytest.mark.parametrize("run", [1, 255, 256, 257, 600])
def test_a_column_keeps_every_value_exact_across_batches(values, run):
    """Each value repeated ``run`` times in turn: the column changes kind
    inside a batch, at its edge, and after whole batches were packed."""
    trace = Tracer(clock=lambda: 0.5)
    rows = [value for value in values for _ in range(run)]
    for value in rows:
        trace.record("write", object=value)
        trace.record("tick", now=1.5)
    reference = [DictBackedRecord(0.5, category, fields) for value in rows
                 for category, fields in (("write", {"object": value}),
                                          ("tick", {"now": 1.5}))]
    assert exact(trace) == exact(reference)
    assert exact(trace.select("write")) == exact(reference[::2])
    assert trace.digest() == reference_digest(reference)
    for value in values:
        assert len(trace.select("write", object=value)) == sum(
            1 for row in rows if row == value)


def test_more_shapes_than_the_order_array_first_holds():
    # The stored order starts at one byte per record: 300 shapes need two.
    trace, reference = Tracer(clock=lambda: 0.25), RowStore()
    for index in range(900):
        trace.record(f"c{index % 300}", n=index)
        reference.record(0.25, f"c{index % 300}", {"n": index})
    assert exact(trace) == exact(reference.rows)
    assert trace.categories() == reference.categories()
    assert trace.digest() == reference_digest(reference.rows)
    assert exact(trace.select("c299")) == exact(reference.select("c299"))


def test_snapshot_outlives_later_records_and_clear():
    trace = Tracer(clock=lambda: 1.0)
    for index in range(300):
        trace.record("write", object=index % 3, seq=index)
    every = trace.select("write")
    ones = trace.select("write", object=1)
    scanned = trace.select("write", object=1, seq=4)
    before = exact(every), exact(ones), exact(scanned)
    for index in range(300):
        trace.record("write", object=1, seq=2.5)  # seq turns into a list
    assert (exact(every), exact(ones), exact(scanned)) == before
    trace.clear()
    trace.record("write", object=1, seq="new")
    assert (exact(every), exact(ones), exact(scanned)) == before
    assert [len(every), len(ones), len(scanned)] == [300, 100, 1]
    assert exact(trace.select("write", object=1)) == exact(
        [DictBackedRecord(1.0, "write", {"object": 1, "seq": "new"})])


def test_selection_behaves_like_the_list_of_its_records():
    trace = Tracer(clock=lambda: 2.0)
    for index in range(7):
        trace.record("a", n=index)
        trace.record("b", n=-index)
    a, b, none = trace.select("a"), trace.select("b"), trace.select("zz")
    rows, other = list(a), list(b)
    assert a == rows and rows == a and not (a != rows)
    assert a != other and a != rows[:-1] and a != rows + rows[:1]
    assert none == [] and [] == none and not none and a
    assert a != tuple(rows)  # a list's == : never equal to a tuple
    assert [] + a == rows and a + [] == rows
    assert type([] + a) is list and type(a + []) is list
    assert rows[:1] + a == rows[:1] + rows and a + other == rows + other
    both = a + b
    assert type(both) is type(a) and both == rows + other
    assert len(both) == 14 and bool(both)
    assert both[0] == rows[0] and both[-1] == other[-1] and both[7] == other[0]
    for window in (slice(None), slice(2, 5), slice(-3, None),
                   slice(None, None, -1), slice(1, 13, 4), slice(20, 30)):
        assert both[window] == (rows + other)[window]
    with pytest.raises(IndexError):
        both[14]
    with pytest.raises(IndexError):
        both[-15]
    assert list(reversed(both)) == list(reversed(rows + other))
    assert both.index(other[2]) == 9 and both.count(rows[3]) == 1
    assert rows[4] in both
    with pytest.raises(TypeError):
        hash(both)
    restored = pickle.loads(pickle.dumps(both))
    assert type(restored) is type(both) and restored == both


def test_a_stored_record_costs_its_values_not_its_objects():
    """Memory canary: 20k ``read_served``-shaped rows, their floats fresh
    per row as in a run, cost at most 72 B each (~66 B of column values and
    order, plus array headroom) — a retained tuple with its own floats cost
    ~220 B."""
    now = {"t": 0.0}
    server, service = "rtpb/r0@host2", "rtpb"
    Tracer(clock=lambda: 0.0).record(  # interns the shape beforehand
        "read_served", object=0, server=server, service=service, issue=0.0,
        response=0.0, staleness=0.0, bound=0.2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = Tracer(clock=lambda: now["t"])
        for index in range(20_000):
            now["t"] = index * 1e-3 + 4e-4
            trace.record("read_served", object=index % 8, server=server,
                         service=service, issue=index * 1e-3,
                         response=index * 1e-3 + 4e-4,
                         staleness=index * 1e-5, bound=0.2)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 20_000
    assert retained / 20_000 <= 72, retained / 20_000


def test_counting_over_joined_selections_holds_no_records():
    """Memory canary: a collector-style pass over ``select(a) + select(b)``
    across 100k stored records stays under 1 MB of traced peak; lists of
    the records (or of references to them) would not."""
    trace = Tracer(clock=lambda: 0.0)
    for index in range(50_000):
        trace.record("read_served", object=index % 8, issue=index * 1e-3)
        trace.record("client_read", object=index % 8, issue=index * 1e-3)
    trace.select("client_read")  # a read packs every pending row
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        counted = sum(1 for record in (trace.select("read_served")
                                       + trace.select("client_read"))
                      if record["issue"] >= 0.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert counted == 100_000
    assert peak < 1 << 20, peak
