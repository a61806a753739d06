"""Every ``RunMetrics`` field against a brute-force reference.

``collect`` / ``collect_cluster`` / ``run_scenario`` fill the whole
deployment's metrics and every group's from one pass that credits each
record to its object's group.  The reference below reads nothing but
``iter(trace)`` and the deployment's registries (specs, clients, snapshot
credits), recomputes each field for one view at a time the slow way —
distance timelines gathered, sorted, shifted and sorted again; samples
filtered per view and summarised by hand — and must agree to the last bit
for the whole deployment and for each group, on runs that lose updates,
lose hosts, move objects between groups, answer on the fast path and serve
reads from replicas.
"""

import dataclasses
import math
from collections import defaultdict

import pytest

from repro.cluster.metrics import collect_cluster
from repro.core.service import RTPBService
from repro.errors import ReplicationError
from repro.experiments.harness import collect, run_scenario
from repro.faults.schedule import FaultSchedule
from repro.metrics.collectors import lateness_episodes, max_distance_per_object
from repro.metrics.summary import RunMetrics, collect_metrics
from repro.sim.trace import TraceRecord
from repro.units import ms
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.elastic import ElasticScenario
from repro.workload.generator import spec_for_window
from repro.workload.scenarios import Scenario

WARMUP = 2.0


# ---------------------------------------------------------------------------
# The reference: iter(trace) only, no helper shared with the library
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


def reference_lateness(view, horizon, start):
    """(per-object max distance, every inconsistency episode's length)."""
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


def reference_summary(values):
    """(count, mean, p50, p95, max, p99, p999); NaNs when empty."""
    ordered = sorted(values)
    if not ordered:
        return (0,) + (math.nan,) * 6

    def rank(fraction):
        index = int(math.ceil(fraction * len(ordered))) - 1
        return ordered[max(0, min(len(ordered) - 1, index))]

    return (len(ordered), sum(ordered) / len(ordered), rank(0.50),
            rank(0.95), ordered[-1], rank(0.99), rank(0.999))


def view_records(view, deployment):
    """The deployment's stored records by category, keeping only the
    view's objects' when the view is one group of it."""
    ids = None if view is deployment else set(view.object_ids())
    found = defaultdict(list)
    for record in deployment.trace:
        if ids is None or record.get("object") in ids:
            found[record.category].append(record)
    return found


def reference_issued(view, deployment):
    """Writes issued to the view's objects: every client's by object, plus
    the snapshot writes migrations injected."""
    issued = defaultdict(int)
    for client in deployment.clients:
        for object_id, count in client.issued.items():
            issued[object_id] += count
    for group in deployment.groups:
        for object_id, count in group.snapshot_writes.items():
            issued[object_id] += count
    ids = issued if view is deployment else view.object_ids()
    return sum(issued[object_id] for object_id in ids)


def reference_metrics(view, deployment, horizon, warmup):
    """Every RunMetrics field of ``view``, by name, and the view's maximum
    distance per object."""
    records = view_records(view, deployment)
    responses = [record for record in records["client_response"]
                 if record["issue"] >= warmup]
    fast = [record["response"] for record in responses
            if record.get("path") == "fast"]
    deferred = [record["response"] for record in responses
                if record.get("path") == "deferred"]
    answered = (len(records["client_response"])
                + len(records["client_response_degraded"]))
    sent = len(records["update_sent"])
    arrivals = (len(records["backup_apply"])
                + len(records["backup_apply_stale"]))
    replica_reads = [record for record in records["read_served"]
                     if record["issue"] >= warmup]
    reads = replica_reads + [record for record in records["client_read"]
                             if record["issue"] >= warmup]
    fallbacks = sum(1 for record in records["read_fallback"]
                    if record.time >= warmup)
    distance, inconsistency = reference_lateness(view, horizon, warmup)
    span = horizon - warmup
    return distance, {
        "admitted": len(view.registered_specs()),
        "response": reference_summary(
            record["response"] for record in responses),
        "starved_writes": max(0, reference_issued(view, deployment)
                              - answered),
        "avg_max_distance": mean_or_zero(distance.values()),
        "avg_inconsistency": mean_or_zero(inconsistency),
        "delivery_rate": arrivals / sent if sent else 1.0,
        "read_throughput": len(reads) / span if span > 0 else 0.0,
        "read_staleness": reference_summary(
            record["staleness"] for record in reads
            if math.isfinite(record["staleness"])),
        "slo_violations": sum(
            1 for record in records["read_served"]
            if record["staleness"] > record["bound"] + 1e-12),
        "fallback_rate": (fallbacks / (fallbacks + len(replica_reads))
                          if fallbacks + len(replica_reads) else 0.0),
        "fastpath_hit_rate": (len(fast) / (len(fast) + len(deferred))
                              if fast or deferred else 0.0),
        "fast_response": reference_summary(fast),
        "deferred_response": reference_summary(deferred),
        "degraded_responses": len(records["client_response_degraded"]),
    }


def comparable(value):
    """A metric value with its summary unpacked and NaN made equal."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    values = value if isinstance(value, tuple) else (value,)
    return tuple(None if isinstance(each, float) and math.isnan(each)
                 else each for each in values)


def assert_view_matches_reference(view, deployment, metrics, horizon,
                                  warmup=WARMUP):
    """``metrics`` is what the collection pass reported for ``view``."""
    distance, expected = reference_metrics(view, deployment, horizon, warmup)
    fields = [each.name for each in dataclasses.fields(RunMetrics)]
    assert sorted(expected) == sorted(fields)
    for name in fields:
        # Exact equality throughout: same operands, same order.
        assert comparable(getattr(metrics, name)) == \
            comparable(expected[name]), name
    assert max_distance_per_object(view, horizon, warmup) == distance
    for spec in view.registered_specs():
        for allowance in (0.0, spec.window):
            assert lateness_episodes(
                view, spec.object_id, horizon, warmup, allowance
            ) == reference_episodes(reference_timeline(
                view.trace, spec.object_id, horizon, allowance),
                horizon, warmup)
    return expected


def assert_cluster_matches_reference(result, horizon):
    """The run's cluster-wide and per-group metrics, both recomputed by
    ``collect_cluster`` and by the reference; returns the cluster's."""
    cluster = result.service
    bundle = collect_cluster(cluster, horizon, WARMUP)
    assert bundle.cluster == result.metrics
    assert bundle.per_group == result.per_group
    assert list(bundle.per_group) == [group.name for group in cluster.groups]
    for group in cluster.groups:
        assert_view_matches_reference(group, cluster,
                                      bundle.per_group[group.name], horizon)
    return assert_view_matches_reference(cluster, cluster, bundle.cluster,
                                         horizon)


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
    assert result.per_group == {}
    expected = assert_view_matches_reference(
        result.service, result.service, metrics, scenario.horizon)
    # The comparison is not of zeros: updates were lost and it shows.
    assert expected["avg_max_distance"] > 0.0
    assert expected["avg_inconsistency"] > 0.0


def test_cluster_run_with_a_host_kill_matches_reference():
    scenario = ClusterScenario(n_shards=4, n_hosts=4, n_objects=8,
                               horizon=10.0, seed=0, loss_probability=0.05)
    probe = build_cluster(scenario)
    probe.start()
    doomed = probe.groups[1].current_primary().host.address
    schedule = FaultSchedule().kill_host(5.0, doomed)
    result = run_scenario(scenario, fault_schedule=schedule)
    assert result.service.trace.select("failover")
    expected = assert_cluster_matches_reference(result, scenario.horizon)
    assert expected["avg_max_distance"] > 0.0
    assert expected["avg_inconsistency"] > 0.0


def test_elastic_run_with_a_migration_matches_reference():
    # An idle two-group cluster scales in: the victim's objects migrate to
    # the survivor mid-run, so their writes and applies change groups.
    scenario = ElasticScenario(
        n_shards=2, n_hosts=4, n_objects=8, horizon=10.0, seed=0,
        low_watermark=0.5, low_samples=4, max_groups=0, max_hosts=0,
        loss_probability=0.05)
    result = run_scenario(scenario)
    assert result.controller.migrations_committed >= 1
    assert sum(sum(group.snapshot_writes.values())
               for group in result.service.groups) > 0
    expected = assert_cluster_matches_reference(result, scenario.horizon)
    assert expected["avg_max_distance"] > 0.0


def test_fast_path_pair_run_matches_reference():
    # Fast-path eager replies before the backup ack (``path`` on every
    # response), and the backup's crash flushes writes as degraded.
    scenario = Scenario(n_objects=4, window=ms(200.0),
                        client_period=ms(20.0), horizon=8.0, seed=0,
                        n_spares=1, replication="eager_fastpath")
    result = run_scenario(scenario,
                          fault_schedule=FaultSchedule().crash(5.0, 2))
    expected = assert_view_matches_reference(
        result.service, result.service, result.metrics, scenario.horizon)
    assert expected["fast_response"][0] > 0
    assert expected["deferred_response"][0] > 0
    assert expected["degraded_responses"] > 0


def test_read_replica_cluster_run_matches_reference():
    # Replicas serve reads (``read_served``), and when a lossy link leaves
    # none qualified the read falls back to the primary (``read_fallback``,
    # ``client_read``); each group counts its own objects' reads.
    scenario = ClusterScenario(n_shards=2, n_hosts=5, n_objects=6,
                               horizon=6.0, seed=1, loss_probability=0.2,
                               replicas_per_group=1, read_period=ms(10.0))
    result = run_scenario(scenario)
    expected = assert_cluster_matches_reference(result, scenario.horizon)
    assert expected["read_staleness"][0] > 0
    assert expected["fallback_rate"] > 0.0
    assert all(metrics.fallback_rate
               for metrics in result.per_group.values())


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
    assert collect_metrics(service, 3.0, warmup=0.0).avg_inconsistency == 0.0
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
        # The whole collection pass and the per-object distance replay the
        # same trace as it happened, not as it was ingested.
        assert_view_matches_reference(
            service, service, collect_metrics(service, 3.0, start), 3.0,
            warmup=start)
