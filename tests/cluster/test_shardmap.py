"""Unit tests for the rendezvous shard map."""

import pytest

from repro.cluster.shardmap import ShardMap
from repro.errors import ClusterError


def test_shard_of_is_deterministic_and_in_range():
    names = [f"obj-{index}" for index in range(64)]
    first = [ShardMap(8).shard_of(name) for name in names]
    second = [ShardMap(8).shard_of(name) for name in names]
    assert first == second
    assert all(0 <= shard < 8 for shard in first)


def test_growth_only_moves_objects_into_the_new_shard():
    # The rendezvous property: going from n to n+1 shards, an object either
    # stays put or moves to the *new* shard — never between old shards.
    names = [f"obj-{index}" for index in range(200)]
    for n_shards in (1, 2, 4, 7):
        before = {name: ShardMap(n_shards).shard_of(name) for name in names}
        after = {name: ShardMap(n_shards + 1).shard_of(name)
                 for name in names}
        moved = [name for name in names if after[name] != before[name]]
        assert moved, "growth should claim at least one object"
        assert all(after[name] == n_shards for name in moved)


def test_salt_changes_the_layout():
    names = [f"obj-{index}" for index in range(100)]
    assert [ShardMap(8, salt="a").shard_of(name) for name in names] != \
        [ShardMap(8, salt="b").shard_of(name) for name in names]


def test_rank_hosts_is_a_deterministic_permutation():
    shard_map = ShardMap(8)
    addresses = [5, 3, 1, 4, 2]
    ranked = shard_map.rank_hosts(3, "primary", addresses)
    assert sorted(ranked) == sorted(addresses)
    assert ranked == shard_map.rank_hosts(3, "primary", addresses)


def test_rank_hosts_role_salting_varies_the_order():
    # Primary and backup rankings come from differently-salted scores, so
    # across a handful of shards they cannot all coincide.
    shard_map = ShardMap(16)
    addresses = list(range(1, 7))
    assert any(
        shard_map.rank_hosts(shard, "primary", addresses)
        != shard_map.rank_hosts(shard, "backup0", addresses)
        for shard in range(16))


def test_invalid_shard_count_raises():
    with pytest.raises(ClusterError):
        ShardMap(0)
