"""The collectors' lateness episodes against a brute-force reference.

``collect`` / ``collect_cluster`` replay each object's write and apply
records once, in the order they happened, and decide both allowances'
episodes with ``late_intervals``.  The reference below reads nothing but
``iter(trace)``, builds every distance timeline the slow way — gather,
sort, shift, sort again — cuts its positive runs at ``start``, and must
agree with them to the last bit, on runs that lose updates, lose hosts,
and move objects between groups.
"""

import pytest

from repro.cluster.metrics import collect_cluster
from repro.core.service import RTPBService
from repro.errors import ReplicationError
from repro.experiments.harness import collect, run_scenario
from repro.faults.schedule import FaultSchedule
from repro.metrics.collectors import (
    average_inconsistency_duration,
    average_max_distance,
    inconsistency_durations,
    lateness_episodes,
    max_distance_per_object,
)
from repro.sim.trace import TraceRecord
from repro.units import ms
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.elastic import ElasticScenario
from repro.workload.generator import spec_for_window
from repro.workload.scenarios import Scenario

WARMUP = 2.0


# ---------------------------------------------------------------------------
# The reference: no select, no shared helper between the two metrics
# ---------------------------------------------------------------------------


def reference_timeline(trace, object_id, horizon, allowance):
    writes = [(record.time, "write", record.time) for record in trace
              if record.category == "primary_write"
              and record.get("object") == object_id]
    applies = [(record.time, "apply", record["write_time"])
               for record in trace
               if record.category == "backup_apply"
               and record.get("object") == object_id]
    happened = sorted(writes + applies, key=lambda event: event[0])
    effective = sorted(
        ((time + allowance if kind == "write" else time, kind, value)
         for time, kind, value in happened),
        key=lambda event: event[0])
    timeline = []
    frontier = w_b = None
    for time, kind, value in effective:
        if time > horizon:
            break
        if kind == "write":
            frontier = value
        else:
            w_b = value if w_b is None else max(w_b, value)
        if frontier is not None and w_b is not None:
            timeline.append((time, max(0.0, frontier - w_b)))
    return timeline


def reference_episodes(timeline, horizon, start):
    """Each maximal run of positive distance, cut to begin no earlier than
    ``start``; one that is empty after the cut is no episode."""
    episodes = []
    opened = None
    for time, distance in timeline:
        if distance > 1e-12:
            if opened is None:
                opened = time
        elif opened is not None:
            episodes.append((opened, time))
            opened = None
    if opened is not None:
        episodes.append((opened, horizon))
    return [(max(opened, start), closed) for opened, closed in episodes
            if closed > max(opened, start)]


def durations(episodes):
    return [closed - opened for opened, closed in episodes]


def reference_allowance(view, spec):
    """Update period + ℓ, from the live primary's store when there is one."""
    try:
        period = view.current_primary().store.get(spec.object_id).update_period
    except ReplicationError:
        period = None
    if period is None:
        period = view.config.update_period(spec)
    return period + view.config.ell


def reference_metrics(view, horizon, start):
    """(per-object max distance, every inconsistency episode)."""
    trace = view.trace
    distance = {}
    inconsistency = []
    for spec in view.registered_specs():
        lateness = durations(reference_episodes(
            reference_timeline(trace, spec.object_id, horizon,
                               reference_allowance(view, spec)),
            horizon, start))
        distance[spec.object_id] = max(lateness, default=0.0)
        inconsistency.extend(durations(reference_episodes(
            reference_timeline(trace, spec.object_id, horizon, spec.window),
            horizon, start)))
    return distance, inconsistency


def mean_or_zero(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def assert_view_matches_reference(view, metrics, horizon):
    """``metrics`` is what the run's collector reported for ``view``."""
    distance, inconsistency = reference_metrics(view, horizon, WARMUP)
    # Exact float equality throughout: same operands, same order.
    assert max_distance_per_object(view, horizon, WARMUP) == distance
    assert inconsistency_durations(view, horizon, WARMUP) == inconsistency
    assert metrics.avg_max_distance == mean_or_zero(distance.values())
    assert metrics.avg_inconsistency == mean_or_zero(inconsistency)
    assert average_max_distance(view, horizon, WARMUP) == \
        metrics.avg_max_distance
    assert average_inconsistency_duration(view, horizon, WARMUP) == \
        metrics.avg_inconsistency
    for spec in view.registered_specs():
        for allowance in (0.0, spec.window):
            assert lateness_episodes(
                view, spec.object_id, horizon, WARMUP, allowance
            ) == reference_episodes(reference_timeline(
                view.trace, spec.object_id, horizon, allowance),
                horizon, WARMUP)
    return distance, inconsistency


def assert_cluster_matches_reference(result, horizon):
    cluster = result.service
    bundle = collect_cluster(cluster, horizon, WARMUP)
    assert bundle.cluster == result.metrics
    assert bundle.per_group == result.per_group
    found = assert_view_matches_reference(cluster, bundle.cluster, horizon)
    for group in cluster.groups:
        assert_view_matches_reference(group, bundle.per_group[group.name],
                                      horizon)
    return found


# ---------------------------------------------------------------------------
# Real runs
# ---------------------------------------------------------------------------


def test_lossy_pair_run_matches_reference():
    scenario = Scenario(n_objects=6, window=ms(200.0),
                        client_period=ms(50.0), horizon=8.0, seed=4,
                        loss_probability=0.1)
    result = run_scenario(scenario)
    metrics = collect(scenario, result.service, WARMUP)
    assert metrics == result.metrics
    distance, inconsistency = assert_view_matches_reference(
        result.service, metrics, scenario.horizon)
    # The comparison is not of zeros: updates were lost and it shows.
    assert max(distance.values()) > 0.0
    assert inconsistency


def test_cluster_run_with_a_host_kill_matches_reference():
    scenario = ClusterScenario(n_shards=4, n_hosts=4, n_objects=8,
                               horizon=10.0, seed=0, loss_probability=0.05)
    probe = build_cluster(scenario)
    probe.start()
    doomed = probe.groups[1].current_primary().host.address
    schedule = FaultSchedule().kill_host(5.0, doomed)
    result = run_scenario(scenario, fault_schedule=schedule)
    assert result.service.trace.select("failover")
    distance, inconsistency = assert_cluster_matches_reference(
        result, scenario.horizon)
    assert max(distance.values()) > 0.0
    assert inconsistency


def test_elastic_run_with_a_migration_matches_reference():
    # An idle two-group cluster scales in: the victim's objects migrate to
    # the survivor mid-run, so their writes and applies change groups.
    scenario = ElasticScenario(
        n_shards=2, n_hosts=4, n_objects=8, horizon=10.0, seed=0,
        low_watermark=0.5, low_samples=4, max_groups=0, max_hosts=0,
        loss_probability=0.05)
    result = run_scenario(scenario)
    assert result.controller.migrations_committed >= 1
    distance, _ = assert_cluster_matches_reference(result, scenario.horizon)
    assert max(distance.values()) > 0.0


# ---------------------------------------------------------------------------
# Tie order on a hand-built trace
# ---------------------------------------------------------------------------


def hand_built_service(window, records):
    service = RTPBService(seed=0)
    service.register(spec_for_window(0, window=window,
                                     client_period=ms(50.0)))
    service.trace.clear()
    for record in records:
        service.trace.ingest(record)
    return service


def write(time):
    return TraceRecord(time, "primary_write", {"object": 0})


def apply(time, write_time):
    return TraceRecord(time, "backup_apply",
                       {"object": 0, "write_time": write_time})


def test_a_write_coming_due_at_its_apply_instant_is_not_late():
    # The write of 1.0 comes due (1.0 + 0.5) at the very instant the
    # backup applies it.  ``W_B(1.5)`` counts the apply at 1.5, so the
    # backup is never behind and no episode, not even an empty one, counts.
    service = hand_built_service(window=0.5, records=[
        write(0.5), apply(0.75, 0.5), write(1.0), apply(1.5, 1.0)])
    assert 1.0 + 0.5 == 1.5
    assert lateness_episodes(service, 0, horizon=3.0, allowance=0.5) == []
    assert inconsistency_durations(service, horizon=3.0) == []
    assert average_inconsistency_duration(service, horizon=3.0) == 0.0
    assert reference_episodes(reference_timeline(
        service.trace, 0, 3.0, 0.5), 3.0, 0.0) == []


@pytest.mark.parametrize("allowance", [0.0, 0.25, 0.5])
def test_ties_and_out_of_order_ingest_match_reference(allowance):
    # Simultaneous write and apply, two applies at one instant (newer
    # version recorded first), and records ingested out of time order.
    service = hand_built_service(window=0.5, records=[
        write(1.0), apply(1.0, 0.5), write(0.5), apply(0.75, 0.5),
        apply(1.5, 1.0), apply(1.5, 0.5), write(2.0), write(1.5),
        apply(2.5, 2.0), write(2.25)])
    for start in (0.0, 1.5, 2.0):
        assert lateness_episodes(service, 0, 3.0, start, allowance) == \
            reference_episodes(reference_timeline(
                service.trace, 0, 3.0, allowance), 3.0, start)
