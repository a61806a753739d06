"""Versioned object storage at a replica.

Each registered object gets an :class:`ObjectRecord`: its spec, the current
value, monotonic sequence numbers, and the
:class:`~repro.consistency.timestamps.VersionHistory` the consistency
checkers and metrics read after a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.consistency.timestamps import VersionHistory
from repro.core.spec import ObjectSpec
from repro.errors import ReplicationError, UnknownObjectError


@dataclass
class ObjectRecord:
    """State of one object at one replica."""

    spec: ObjectSpec
    history: VersionHistory
    value: bytes = b""
    #: Sequence number of the current version (0 = never written).
    seq: int = 0
    #: Primary apply time of the current version.
    write_time: float = 0.0
    #: Client sample time of the current version.
    source_time: float = 0.0
    #: Transmission period granted at admission (meaningful at the primary;
    #: mirrored to the backup in the REGISTER message for watchdog sizing).
    update_period: Optional[float] = None


class ObjectStore:
    """All objects held by one replica."""

    def __init__(self) -> None:
        self._records: Dict[int, ObjectRecord] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, spec: ObjectSpec,
                 update_period: Optional[float] = None) -> ObjectRecord:
        """Reserve space for an object (idempotent on identical spec)."""
        existing = self._records.get(spec.object_id)
        if existing is not None:
            if existing.spec != spec:
                raise ReplicationError(
                    f"object {spec.object_id} re-registered with a "
                    f"different spec")
            if update_period is not None:
                existing.update_period = update_period
            return existing
        record = ObjectRecord(spec=spec,
                              history=VersionHistory(spec.object_id),
                              update_period=update_period)
        self._records[spec.object_id] = record
        return record

    def deregister(self, object_id: int) -> None:
        if object_id not in self._records:
            raise UnknownObjectError(f"object {object_id} not registered")
        del self._records[object_id]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ObjectRecord]:
        return iter(self._records.values())

    def get(self, object_id: int) -> ObjectRecord:
        record = self._records.get(object_id)
        if record is None:
            raise UnknownObjectError(f"object {object_id} not registered")
        return record

    def object_ids(self) -> List[int]:
        return list(self._records.keys())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def write(self, object_id: int, now: float, value: bytes,
              source_time: float) -> ObjectRecord:
        """Apply a client write at the primary; bumps the sequence number."""
        record = self.get(object_id)
        self.apply_update(object_id, now, record.seq + 1, now, source_time,
                          value)
        return record

    def apply_update(self, object_id: int, now: float, seq: int,
                     write_time: float, source_time: float,
                     value: bytes) -> bool:
        """Apply a replicated update at the backup.

        Returns False (and changes nothing) when ``seq`` is not newer than
        the current version — UDP can reorder, and a late retransmission
        must not roll the object backwards.
        """
        record = self.get(object_id)
        if seq <= record.seq:
            return False
        record.seq = seq
        record.value = value
        record.write_time = write_time
        record.source_time = source_time
        record.history.record(now, seq, source_time)
        return True

    def snapshot(self, object_id: int) -> Tuple[int, float, float, bytes]:
        """Current ``(seq, write_time, source_time, value)`` for transmission."""
        record = self.get(object_id)
        return record.seq, record.write_time, record.source_time, record.value
