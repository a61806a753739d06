"""The cluster benches and the chaos bench's cluster/fast-path exclusion."""

from repro.bench.registry import SCENARIOS, BenchStats, chaos_bench_names


def test_cluster_benches_are_registered():
    assert "cluster_steady" in SCENARIOS
    assert "cluster_failover" in SCENARIOS


def test_cluster_steady_quick_is_deterministic():
    first = SCENARIOS["cluster_steady"](True)
    second = SCENARIOS["cluster_steady"](True)
    assert isinstance(first, BenchStats)
    assert first.digest == second.digest
    assert first.events_executed == second.events_executed
    assert first.extra == second.extra
    assert first.extra["groups"] == 4
    assert first.extra["admitted"] == 8


def test_cluster_failover_quick_exercises_recovery():
    stats = SCENARIOS["cluster_failover"](True)
    # One primary crash plus a whole-group host kill: the co-located
    # victims fail over and the dead group is re-placed exactly once.
    assert stats.extra["failovers"] >= 1
    assert stats.extra["replacements"] == 1
    assert stats.extra["violations"] == 0


def test_chaos_bench_name_list_excludes_cluster_scenarios():
    # The chaos bench predates the sharded and fast-path catalogue entries;
    # filtering them keeps its digest comparable with older baselines.
    # Guard the bench's own filter (the bench run is covered by the CI
    # smoke job).
    from repro.faults.scenarios import SCENARIOS as CHAOS

    names = chaos_bench_names()
    left_out = set(CHAOS) - set(names)
    assert {"cluster_group_outage", "fastpath_backup_crash"} <= left_out
    assert all(name.startswith(("cluster", "fastpath"))
               for name in left_out)
    assert not any(name.startswith(("cluster", "fastpath"))
                   for name in names)
    assert names == sorted(names)
    assert names[:2] == ["backup_flapping", "crash_plus_partition"]
