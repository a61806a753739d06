"""Unit tests for the bench scenario registry (quick micro scenarios only).

The service-level scenarios are exercised by the CI bench smoke job
(``python -m repro bench --quick``), not here — tier-1 stays fast.
"""

from repro.bench.registry import SCENARIOS, BenchStats


def test_registry_names_cover_the_suite():
    assert set(SCENARIOS) == {
        "sim_engine", "tracer_select", "sim_release_storm", "service_run",
        "fastpath_steady", "fastpath_failover", "chaos_scenarios",
        "cluster_steady", "cluster_failover", "elastic_scaleup",
        "migration_steady", "replica_read_steady", "replica_read_failover",
    }


def test_sim_engine_quick_is_deterministic():
    first = SCENARIOS["sim_engine"](True)
    second = SCENARIOS["sim_engine"](True)
    assert isinstance(first, BenchStats)
    assert first.events_executed == second.events_executed
    assert first.events_executed > 20_000
    assert first.extra == second.extra
    assert first.extra["ticks"] == 20_000


def test_tracer_select_digest_stable_across_runs():
    first = SCENARIOS["tracer_select"](True)
    second = SCENARIOS["tracer_select"](True)
    assert first.digest == second.digest
    assert first.trace_records == second.trace_records == 20_000
    assert first.extra == second.extra
    # Two categories of five hold the object records the selects count.
    assert first.extra["selected"] == 2 * (20_000 // 5)
