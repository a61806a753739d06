"""Unit tests for the versioned object store."""

import gc
import tracemalloc

import pytest

from repro.consistency.timestamps import VersionHistory
from repro.core.object_store import ObjectStore
from repro.core.service import RTPBService
from repro.core.spec import ObjectSpec
from repro.errors import ReplicationError, UnknownObjectError
from repro.units import ms
from repro.workload.generator import spec_for_window


def make_spec(object_id=0):
    return ObjectSpec(object_id=object_id, name=f"o{object_id}",
                      size_bytes=64, client_period=ms(100),
                      delta_primary=ms(100), delta_backup=ms(300))


def test_register_and_lookup():
    store = ObjectStore()
    record = store.register(make_spec())
    assert 0 in store
    assert store.get(0) is record
    assert len(store) == 1


def test_register_is_idempotent_on_same_spec():
    store = ObjectStore()
    first = store.register(make_spec())
    second = store.register(make_spec())
    assert first is second


def test_register_updates_period_on_idempotent_call():
    store = ObjectStore()
    store.register(make_spec())
    record = store.register(make_spec(), update_period=0.05)
    assert record.update_period == 0.05


def test_register_conflicting_spec_rejected():
    store = ObjectStore()
    store.register(make_spec())
    conflicting = ObjectSpec(object_id=0, name="o0", size_bytes=128,
                             client_period=ms(100), delta_primary=ms(100),
                             delta_backup=ms(300))
    with pytest.raises(ReplicationError):
        store.register(conflicting)


def test_get_unknown_raises():
    with pytest.raises(UnknownObjectError):
        ObjectStore().get(99)


def test_deregister():
    store = ObjectStore()
    store.register(make_spec())
    store.deregister(0)
    assert 0 not in store
    with pytest.raises(UnknownObjectError):
        store.deregister(0)


def test_write_bumps_sequence_and_history():
    store = ObjectStore()
    store.register(make_spec())
    first_seq = store.write(0, now=1.0, value=b"a", source_time=0.9).seq
    record = store.write(0, now=2.0, value=b"b", source_time=1.9)
    assert first_seq == 1 and record.seq == 2
    assert record.value == b"b"
    assert list(record.history.times) == [1.0, 2.0]


def test_apply_update_accepts_newer_only():
    store = ObjectStore()
    store.register(make_spec())
    assert store.apply_update(0, now=1.0, seq=3, write_time=0.9,
                              source_time=0.8, value=b"v3")
    # Older or duplicate sequence numbers must be rejected (UDP reorders).
    assert not store.apply_update(0, now=1.5, seq=2, write_time=0.5,
                                  source_time=0.4, value=b"v2")
    assert not store.apply_update(0, now=1.6, seq=3, write_time=0.9,
                                  source_time=0.8, value=b"v3")
    record = store.get(0)
    assert record.seq == 3
    assert record.value == b"v3"
    assert len(record.history) == 1


def test_apply_update_can_skip_sequences():
    store = ObjectStore()
    store.register(make_spec())
    assert store.apply_update(0, 1.0, seq=1, write_time=0.9, source_time=0.8,
                              value=b"v1")
    # Periodic snapshots legitimately skip versions.
    assert store.apply_update(0, 2.0, seq=7, write_time=1.9, source_time=1.8,
                              value=b"v7")
    assert store.get(0).seq == 7


def test_snapshot_returns_current_version():
    store = ObjectStore()
    store.register(make_spec())
    store.write(0, now=1.0, value=b"abc", source_time=0.95)
    seq, write_time, source_time, value = store.snapshot(0)
    assert (seq, write_time, source_time, value) == (1, 1.0, 0.95, b"abc")


def test_object_ids_and_iteration():
    store = ObjectStore()
    for object_id in (2, 5, 9):
        store.register(make_spec(object_id))
    assert sorted(store.object_ids()) == [2, 5, 9]
    assert sorted(record.spec.object_id for record in store) == [2, 5, 9]


def _history_bytes_per_update(size_bytes, role):
    """Bytes freed by dropping one replica's history, per update it held."""
    tracemalloc.start()
    try:
        service = RTPBService(seed=5)
        spec = spec_for_window(0, window=ms(200), client_period=ms(20),
                               size_bytes=size_bytes)
        assert service.register(spec).accepted
        service.create_client([spec])
        service.run(4.0)
        server = (service.primary_server if role == "primary"
                  else service.backup_server)
        record = server.store.get(0)
        updates = len(record.history)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        record.history = VersionHistory(0)
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert updates >= 20
    return freed / updates


@pytest.mark.parametrize("role", ["primary", "backup"])
def test_a_history_retains_its_timeline_not_its_payloads(role):
    """Regression: every applied update kept a version object and its
    payload, so a history grew with the object's size (≈ 228 B an update
    at 64 B, ≈ 4.2 KB at 4096 B)."""
    small = _history_bytes_per_update(64, role)
    large = _history_bytes_per_update(4096, role)
    assert abs(large - small) <= 8, (small, large)
    # Three 8-byte columns, plus the arrays' growth headroom.
    assert max(small, large) <= 48, (small, large)
