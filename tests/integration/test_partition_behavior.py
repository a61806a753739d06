"""Network partitions: documenting behaviour OUTSIDE the paper's assumptions.

Section 4.1 assumes "link failures are handled using physical redundancy
such that network partitions are avoided".  These tests document what the
protocol does when that assumption is violated — the classic primary-backup
split-brain — and that behaviour after the partition heals is at least
coherent (one name-file owner, monotonic backup state).  They are
regression tests for *documented* behaviour, not claims of partition
tolerance.
"""

import pytest

from repro.core.server import Role
from repro.core.service import BACKUP_ADDRESS, PRIMARY_ADDRESS, RTPBService
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def make_running(seed=3):
    service = RTPBService(seed=seed)
    specs = homogeneous_specs(2, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    return service, specs


def test_partition_produces_split_brain():
    """Both sides declare the other dead: the backup promotes while the
    original primary stays primary — two primaries, as expected without
    the physical-redundancy assumption."""
    service, _specs = make_running()
    service.run(2.0)
    service.fabric.set_partition(PRIMARY_ADDRESS, BACKUP_ADDRESS, True)
    service.run(5.0)
    assert service.primary_server.role is Role.PRIMARY
    assert service.primary_server.alive
    assert service.backup_server.role is Role.PRIMARY  # split brain
    assert service.trace.select("failover")
    assert service.trace.select("backup_lost")


def test_clients_follow_the_name_file_during_partition():
    """The name file is the tie-breaker the paper's recovery relies on:
    after the backup promotes and republishes, clients write to it."""
    service, _specs = make_running()
    service.run(2.0)
    service.fabric.set_partition(PRIMARY_ADDRESS, BACKUP_ADDRESS, True)
    service.run(8.0)
    assert service.name_service.lookup("rtpb") == BACKUP_ADDRESS
    recent = [record for record in service.trace.select("primary_write")
              if record.time > 6.0]
    assert recent  # writes continue, against the promoted side
    # And the promoted side's store is the one advancing.
    promoted = service.backup_server
    assert any(promoted.store.get(record["object"]).seq >= record["seq"]
               for record in recent)


def test_heal_after_partition_keeps_state_monotonic():
    """After healing, stale messages from the deposed primary must not roll
    the promoted side's objects backwards (sequence-number guard)."""
    service, specs = make_running()
    service.run(2.0)
    service.fabric.set_partition(PRIMARY_ADDRESS, BACKUP_ADDRESS, True)
    service.run(8.0)
    service.fabric.set_partition(PRIMARY_ADDRESS, BACKUP_ADDRESS, False)
    service.run(12.0)
    promoted = service.backup_server
    for spec in specs:
        seqs = list(promoted.store.get(spec.object_id).history.seqs)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


def test_no_partition_no_split_brain():
    """Control: the same horizon without a partition keeps exactly one
    primary throughout."""
    service, _specs = make_running()
    service.run(10.0)
    assert service.primary_server.role is Role.PRIMARY
    assert service.backup_server.role is Role.BACKUP
    assert not service.trace.select("failover")
