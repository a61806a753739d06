"""Unit tests for the bench scenario registry (quick micro scenarios only).

The catalogue and chaos scenarios are exercised by the CI bench smoke job
(``python -m repro bench --quick``), not here — tier-1 stays fast.
"""

from repro.bench.registry import SCENARIOS, BenchStats
from repro.experiments.catalogue import CATALOGUE


def test_registry_names_cover_the_suite():
    expected = {
        "sim_engine", "queue_churn", "tracer_select", "service_run",
        "chaos_scenarios", "failover_latency",
        "fig06_response_time_ac", "fig07_response_time_noac",
        "fig08_distance_vs_loss", "fig09_distance_ac", "fig10_distance_noac",
        "fig11_inconsistency_normal", "fig12_inconsistency_compressed",
        "replica_read_steady", "replica_read_failover",
    }
    assert expected <= set(SCENARIOS)
    # Every committed table is timed under its own name.
    assert set(CATALOGUE) <= set(SCENARIOS)


def test_sim_engine_quick_is_deterministic():
    first = SCENARIOS["sim_engine"](True)
    second = SCENARIOS["sim_engine"](True)
    assert isinstance(first, BenchStats)
    assert first.events_executed == second.events_executed
    assert first.events_executed > 20_000
    assert first.extra == second.extra
    assert first.extra["ticks"] == 20_000


def test_queue_churn_liveness_accounting_closes():
    stats = SCENARIOS["queue_churn"](True)
    # Every pushed event is either cancelled or drained; nothing leaks.
    assert stats.extra["final_len"] == 0
    assert stats.extra["drained"] == stats.extra["pushes"] - stats.extra[
        "cancels"]


def test_tracer_select_digest_stable_across_runs():
    first = SCENARIOS["tracer_select"](True)
    second = SCENARIOS["tracer_select"](True)
    assert first.digest == second.digest
    assert first.trace_records == second.trace_records == 20_000
    assert first.extra == second.extra
    # Two categories of five hold the object records the selects count.
    assert first.extra["selected"] == 2 * (20_000 // 5)
