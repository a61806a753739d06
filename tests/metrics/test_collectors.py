"""Unit tests for metric collectors (on synthetic runs and traces)."""

import math

import pytest

from repro.core.service import RTPBService
from repro.metrics.collectors import (
    SummaryStats,
    duplicate_deliveries,
    failover_latencies,
    failover_latency,
    lateness_episodes,
    max_distance_per_object,
    summarize,
)
from repro.metrics.summary import collect_metrics
from repro.net.link import BernoulliLoss
from repro.sim.trace import TraceRecord
from repro.units import ms
from repro.workload.generator import homogeneous_specs, spec_for_window


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------


def test_summarize_basic():
    stats = summarize([1.0, 2.0, 3.0, 4.0])
    assert stats.count == 4
    assert stats.mean == pytest.approx(2.5)
    assert stats.p50 == pytest.approx(2.0)
    assert stats.maximum == pytest.approx(4.0)


def test_summarize_empty_is_nan():
    stats = summarize([])
    assert stats.count == 0
    assert math.isnan(stats.mean)


def test_summarize_p95_on_large_sample():
    values = list(range(1, 101))
    stats = summarize([float(v) for v in values])
    assert stats.p95 == pytest.approx(95.0)


def test_summarize_singleton():
    stats = summarize([7.0])
    assert stats.p50 == stats.p95 == stats.maximum == 7.0


# ---------------------------------------------------------------------------
# Lateness episodes on a hand-built trace
# ---------------------------------------------------------------------------


def synthetic_service():
    """A service whose trace we populate by hand (no run)."""
    service = RTPBService(seed=0)
    spec = spec_for_window(0, window=ms(100), client_period=ms(50))
    service.register(spec)
    return service


def ingest_all(trace, records):
    """Replace a trace's contents with hand-built records."""
    trace.clear()
    for record in records:
        trace.ingest(record)


def test_lateness_episodes_steps():
    service = synthetic_service()
    trace = service.trace

    # primary writes at t=1, 2, 3; backup applies version written at 1 at
    # t=1.2, version written at 3 at t=3.5.
    ingest_all(trace, [
        TraceRecord(1.0, "primary_write", {"object": 0, "seq": 1}),
        TraceRecord(1.2, "backup_apply", {"object": 0, "seq": 1,
                                          "write_time": 1.0}),
        TraceRecord(2.0, "primary_write", {"object": 0, "seq": 2}),
        TraceRecord(3.0, "primary_write", {"object": 0, "seq": 3}),
        TraceRecord(3.5, "backup_apply", {"object": 0, "seq": 3,
                                          "write_time": 3.0}),
    ])
    # With no allowance the backup lacks write@2 from the instant it is
    # written until the apply that covers it; write@3 extends that episode.
    assert lateness_episodes(service, 0, horizon=4.0) == [(2.0, 3.5)]
    assert lateness_episodes(service, 0, horizon=4.0, allowance=0.5) == [
        (2.5, 3.5)]
    assert lateness_episodes(service, 0, horizon=4.0, start=2.5) == [
        (2.5, 3.5)]
    assert lateness_episodes(service, 0, horizon=4.0, allowance=1.5) == []
    # max_distance is lateness: with the provisioned allowance a of
    # update period + ell (window 100 ms -> a = 0.0525 s), the backup is
    # behind from the shifted write@2 frontier (t=2.0525) until the apply
    # at t=3.5: one episode of 1.4475 s.
    per_object = max_distance_per_object(service, horizon=4.0)
    assert per_object[0] == pytest.approx(3.5 - 2.0525)


def test_inconsistency_episode_measured_against_window():
    service = synthetic_service()  # window = 100 ms
    ingest_all(service.trace, [
        TraceRecord(1.0, "primary_write", {"object": 0, "seq": 1}),
        TraceRecord(1.01, "backup_apply", {"object": 0, "seq": 1,
                                           "write_time": 1.0}),
        # Write at t=2.0 must reach the backup by t=2.1 (100 ms window)...
        TraceRecord(2.0, "primary_write", {"object": 0, "seq": 2}),
        # ...but only arrives at t=2.4: inconsistent on [2.1, 2.4).
        TraceRecord(2.4, "backup_apply", {"object": 0, "seq": 2,
                                          "write_time": 2.0}),
    ])
    assert lateness_episodes(service, 0, horizon=3.0, allowance=0.1) == [
        (pytest.approx(2.1), 2.4)]
    metrics = collect_metrics(service, horizon=3.0, warmup=0.0)
    assert metrics.avg_inconsistency == pytest.approx(0.3)


def test_an_episode_in_progress_at_start_counts_from_start():
    """Regression: an episode already open when observation began was
    measured from the first write or apply after ``start``, so one that
    ended before any such event was not counted at all."""
    service = synthetic_service()  # window = 100 ms
    ingest_all(service.trace, [
        TraceRecord(1.0, "primary_write", {"object": 0, "seq": 1}),
        TraceRecord(1.01, "backup_apply", {"object": 0, "seq": 1,
                                           "write_time": 1.0}),
        TraceRecord(2.0, "primary_write", {"object": 0, "seq": 2}),
        TraceRecord(2.4, "backup_apply", {"object": 0, "seq": 2,
                                          "write_time": 2.0}),
    ])
    # Inconsistent on [2.1, 2.4); observation opens at 2.2.
    assert collect_metrics(service, horizon=3.0,
                           warmup=2.2).avg_inconsistency == pytest.approx(0.2)
    assert lateness_episodes(service, 0, horizon=3.0, start=2.2,
                             allowance=0.1) == [(2.2, 2.4)]


def test_open_episode_counts_to_horizon():
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "primary_write", {"object": 0, "seq": 1}),
        TraceRecord(1.01, "backup_apply", {"object": 0, "seq": 1,
                                           "write_time": 1.0}),
        TraceRecord(2.0, "primary_write", {"object": 0, "seq": 2}),
    ])
    # The write@2 falls due at 2.1 (100 ms window) and is never applied:
    # the open episode runs to the horizon.
    assert collect_metrics(service, horizon=5.0,
                           warmup=0.0).avg_inconsistency == pytest.approx(2.9)


def test_no_episodes_gives_zero_mean():
    service = synthetic_service()
    assert collect_metrics(service, 1.0, warmup=0.0).avg_inconsistency == 0.0


# ---------------------------------------------------------------------------
# End-to-end sanity on real runs
# ---------------------------------------------------------------------------


def run_real(loss=0.0, horizon=8.0):
    from repro.core.spec import ServiceConfig

    # Loss-tolerant heartbeat so the detector doesn't false-trigger.
    config = ServiceConfig(ping_max_misses=40) if loss else None
    service = RTPBService(
        seed=4, config=config,
        loss_model=BernoulliLoss(loss) if loss else None)
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(horizon)
    return service


def test_response_stats_populated_on_real_run():
    service = run_real()
    stats = collect_metrics(service, 8.0, warmup=1.0).response
    assert stats.count > 100
    assert 0 < stats.mean < ms(10)


def test_distance_grows_with_loss():
    clean = collect_metrics(run_real(0.0), 8.0, 1.0).avg_max_distance
    lossy = collect_metrics(run_real(0.3), 8.0, 1.0).avg_max_distance
    assert lossy > clean


def test_delivery_rate_reflects_loss():
    # A handful of updates are legitimately in flight at the horizon or
    # precede the backup's registration, so "no loss" is ~0.96+, not 1.0.
    assert collect_metrics(run_real(0.0), 8.0).delivery_rate > 0.95
    assert collect_metrics(run_real(0.3), 8.0).delivery_rate < 0.85


# ---------------------------------------------------------------------------
# Duplicate accounting (unclamped delivery ratio)
# ---------------------------------------------------------------------------


def delivery_rate(service):
    return collect_metrics(service, horizon=3.0).delivery_rate


def test_delivery_rate_not_clamped_under_duplication():
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "update_sent", {"object": 0, "seq": 1}),
        TraceRecord(1.1, "backup_apply", {"object": 0, "seq": 1,
                                          "write_time": 1.0}),
        # The network duplicated the datagram: the stale copy still arrives.
        TraceRecord(1.2, "backup_apply_stale", {"object": 0, "seq": 1}),
        TraceRecord(2.0, "update_sent", {"object": 0, "seq": 2}),
        TraceRecord(2.1, "backup_apply", {"object": 0, "seq": 2,
                                          "write_time": 2.0}),
    ])
    assert delivery_rate(service) == pytest.approx(1.5)
    assert duplicate_deliveries(service) == 1


def test_no_duplicates_on_clean_trace():
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "update_sent", {"object": 0, "seq": 1}),
        TraceRecord(1.1, "backup_apply", {"object": 0, "seq": 1,
                                          "write_time": 1.0}),
    ])
    assert delivery_rate(service) == pytest.approx(1.0)
    assert duplicate_deliveries(service) == 0


def test_duplicates_never_negative_under_loss():
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "update_sent", {"object": 0, "seq": 1}),
        TraceRecord(2.0, "update_sent", {"object": 0, "seq": 2}),
        TraceRecord(2.1, "backup_apply", {"object": 0, "seq": 2,
                                          "write_time": 2.0}),
    ])
    assert delivery_rate(service) == pytest.approx(0.5)
    assert duplicate_deliveries(service) == 0


# ---------------------------------------------------------------------------
# Failover pairing
# ---------------------------------------------------------------------------


def test_failover_latencies_pair_each_crash_with_next_failover():
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "server_crash", {"role": "primary"}),
        TraceRecord(1.4, "failover", {}),
        TraceRecord(5.0, "server_crash", {"role": "primary"}),
        TraceRecord(5.9, "failover", {}),
    ])
    assert failover_latencies(service) == [
        pytest.approx(0.4), pytest.approx(0.9)]
    assert failover_latency(service) == pytest.approx(0.4)


def test_failover_before_first_crash_not_misattributed():
    # A backup-initiated failover (e.g. partition-driven promotion) that
    # precedes the first primary crash must not be paired with it — the
    # old scalar collector did exactly that and reported a negative
    # "latency".
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(0.5, "failover", {}),
        TraceRecord(2.0, "server_crash", {"role": "primary"}),
        TraceRecord(2.7, "failover", {}),
    ])
    assert failover_latencies(service) == [pytest.approx(0.7)]
    assert failover_latency(service) == pytest.approx(0.7)


def test_unrecovered_crash_contributes_no_latency():
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "server_crash", {"role": "primary"}),
        TraceRecord(1.3, "failover", {}),
        # Second crash never recovers: no spare left.
        TraceRecord(4.0, "server_crash", {"role": "primary"}),
    ])
    assert failover_latencies(service) == [pytest.approx(0.3)]


def test_no_failover_yields_empty_and_none():
    service = synthetic_service()
    assert failover_latencies(service) == []
    assert failover_latency(service) is None


# ---------------------------------------------------------------------------
# Tail percentiles and NaN-tolerant stats equality
# ---------------------------------------------------------------------------


def test_summarize_tail_percentiles_on_large_sample():
    values = [float(v) for v in range(1, 1001)]
    stats = summarize(values)
    assert stats.p50 == pytest.approx(500.0)
    assert stats.p99 == pytest.approx(990.0)
    assert stats.p999 == pytest.approx(999.0)
    assert stats.maximum == pytest.approx(1000.0)


def test_empty_summary_stats_compare_equal_despite_nan_fields():
    # Serial-vs-parallel outcome comparison relies on this: NaN != NaN
    # would make two structurally identical empty summaries unequal.
    assert SummaryStats.empty() == SummaryStats.empty()
    assert hash(SummaryStats.empty()) == hash(SummaryStats.empty())
    assert SummaryStats.empty() != summarize([1.0])
    assert summarize([1.0, 2.0]) == summarize([1.0, 2.0])


# ---------------------------------------------------------------------------
# Read-path collectors on a hand-built trace
# ---------------------------------------------------------------------------


def read_path_service():
    from repro.sim.trace import TraceRecord as TR

    service = synthetic_service()
    ingest_all(service.trace, [
        TR(1.0, "read_served", {"object": 0, "server": "replica0",
                                "service": "rtpb", "issue": 1.0,
                                "response": 0.001, "staleness": 0.05,
                                "bound": 0.3}),
        TR(2.0, "read_served", {"object": 0, "server": "replica0",
                                "service": "rtpb", "issue": 2.0,
                                "response": 0.002, "staleness": 0.25,
                                "bound": 0.3}),
        # A violation (never produced by real replicas; audit must count it).
        TR(3.0, "read_served", {"object": 0, "server": "replica0",
                                "service": "rtpb", "issue": 3.0,
                                "response": 0.001, "staleness": 0.4,
                                "bound": 0.3}),
        # Primary-served fallback read; infinite staleness (never written).
        TR(4.0, "read_fallback", {"object": 0, "client": "reader",
                                  "service": "rtpb"}),
        TR(4.0, "client_read", {"object": 0, "server": "primary",
                                "issue": 4.0, "response": 0.001,
                                "staleness": float("inf")}),
    ])
    return service


def read_metrics(service, horizon=5.0, warmup=0.0):
    return collect_metrics(service, horizon, warmup)


def test_read_staleness_excludes_infinite_samples():
    service = read_path_service()
    assert read_metrics(service).read_staleness == summarize(
        [0.05, 0.25, 0.4])
    # The warmup filter gates on issue time.
    assert read_metrics(service, warmup=1.5).read_staleness == (
        summarize([0.25, 0.4]))


def test_read_throughput_counts_both_tiers():
    service = read_path_service()
    # 3 replica + 1 primary
    assert read_metrics(service, horizon=1.0).read_throughput == 4.0
    assert read_metrics(service, warmup=1.0).read_throughput == (
        pytest.approx(4 / 4.0))
    assert read_metrics(service, horizon=1.0,
                        warmup=1.0).read_throughput == 0.0


def test_read_slo_violations_counts_only_over_bound_replica_reads():
    service = read_path_service()
    assert read_metrics(service).slo_violations == 1


def test_primary_fallback_rate_weighs_fallbacks_against_replica_reads():
    service = read_path_service()
    # 1 fallback vs 3 replica-served reads.
    assert read_metrics(service).fallback_rate == pytest.approx(0.25)
    # With no read traffic at all the rate is 0, not NaN.
    quiet = synthetic_service()
    assert read_metrics(quiet).fallback_rate == 0.0
