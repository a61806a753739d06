"""The invariant monitor over a cluster: one subscription, every group's
findings merged and stamped with their group."""

from repro.cluster.metrics import collect_cluster
from repro.cluster.service import ClusterService
from repro.core.spec import ServiceConfig
from repro.experiments.harness import RunResult
from repro.faults.injector import FaultInjector
from repro.faults.monitor import InvariantMonitor, kind_counts
from repro.faults.scenarios import build
from repro.net.link import BernoulliLoss
from repro.parallel import outcome_from_result
from repro.units import ms
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.generator import homogeneous_specs


def all_loss_cluster():
    """Total loss with the failure detector effectively off: every
    registration goes unacknowledged and each primary reports its objects
    ``replication_degraded``."""
    cluster = ClusterService(
        config=ServiceConfig(ping_max_misses=10_000),
        loss_model=BernoulliLoss(1.0), n_shards=2, n_hosts=4)
    cluster.register_all(homogeneous_specs(
        4, window=ms(200.0), client_period=ms(100.0)))
    cluster.start()
    return cluster


def test_degraded_findings_reach_the_run_outcome():
    # The cluster monitor used to expose no degraded findings at all, so
    # outcomes reported ``{}``.
    cluster = all_loss_cluster()
    monitor = InvariantMonitor(cluster)
    monitor.attach()
    cluster.run(3.0)

    assert len(cluster.trace.select("replication_degraded")) == 4
    merged = monitor.degraded
    per_group = {name: kind_counts([
                     finding for finding in merged
                     if finding.details["group"] == name])
                 for name in monitor.per_group_counts()}
    assert list(per_group) == [group.name for group in cluster.groups]
    assert sum(counts.get("replication_degraded", 0)
               for counts in per_group.values()) == 4
    # Merged like violations: time-ordered, stamped with the owning group.
    assert [finding.time for finding in merged] == sorted(
        finding.time for finding in merged)
    assert all(per_group[finding.details["group"]] for finding in merged)

    result = RunResult(
        scenario=ClusterScenario(n_shards=2, n_hosts=4, n_objects=4,
                                 horizon=3.0),
        service=cluster, metrics=collect_cluster(cluster, 3.0).cluster,
        monitors=[monitor])
    assert outcome_from_result(result).degraded_counts == {
        "replication_degraded": 4}


# ---------------------------------------------------------------------------
# One monitor over the cluster == one monitor per group
# ---------------------------------------------------------------------------


def _rows(findings, group=None):
    """(time, kind, group, details) per finding; ``group`` for findings
    of a one-group monitor, which carry no stamp."""
    rows = []
    for finding in findings:
        details = dict(finding.details)
        owner = details.pop("group") if group is None else group
        rows.append((finding.time, finding.kind, owner, details))
    return rows


def _ordered(rows):
    return sorted(rows, key=lambda row: (row[0], row[1], row[2],
                                         repr(row[3])))


def _assert_cluster_monitor_matches_group_monitors(cluster, run):
    whole = InvariantMonitor(cluster)
    shards = [InvariantMonitor(group) for group in cluster.groups]
    for monitor in (whole, *shards):
        monitor.attach()
    run()
    for findings in ("violations", "degraded"):
        merged = _rows(getattr(whole, findings))
        apart = [row for group, monitor in zip(cluster.groups, shards)
                 for row in _rows(getattr(monitor, findings), group.name)]
        assert _ordered(merged) == _ordered(apart), findings
    # Degraded findings keep their order too: time first, then group.
    assert _rows(whole.degraded) == sorted(
        [row for group, monitor in zip(cluster.groups, shards)
         for row in _rows(monitor.degraded, group.name)],
        key=lambda row: row[0])
    return whole


def test_cluster_monitor_equals_group_monitors_on_a_group_outage():
    chaos = build("cluster_group_outage", seed=0)
    cluster = chaos.workload.build()
    cluster.trace.enable_only(*chaos.workload.trace_categories)
    cluster.start()
    FaultInjector(cluster, chaos.schedule).arm()
    whole = _assert_cluster_monitor_matches_group_monitors(
        cluster, lambda: cluster.run(chaos.workload.horizon))
    assert whole.violations


def test_cluster_monitor_equals_group_monitors_under_total_loss():
    cluster = all_loss_cluster()
    whole = _assert_cluster_monitor_matches_group_monitors(
        cluster, lambda: cluster.run(3.0))
    assert len(whole.degraded) == 4


def test_cluster_monitor_orders_same_instant_degraded_findings_by_group():
    cluster = build_cluster(ClusterScenario(n_shards=2, n_hosts=4,
                                            n_objects=4, seed=0))
    cluster.start()

    def degrade_last_group_first():
        for group in reversed(cluster.groups):
            cluster.trace.record("replication_degraded",
                                 server=group.members[0].name, object=0)

    whole = _assert_cluster_monitor_matches_group_monitors(
        cluster, degrade_last_group_first)
    assert [finding.details["group"] for finding in whole.degraded] == [
        group.name for group in cluster.groups]


def test_a_cluster_monitor_is_one_tracer_listener():
    scenario = ClusterScenario(n_shards=16, n_hosts=6, n_objects=32, seed=0)
    cluster = build_cluster(scenario)
    cluster.start()
    listeners = len(cluster.trace._listeners)
    monitor, = scenario.monitors(cluster)
    monitor.attach()
    assert len(cluster.trace._listeners) == listeners + 1
    # A group the cluster grows later joins the same subscription.
    monitor.add_group(cluster.add_group())
    assert len(cluster.trace._listeners) == listeners + 1
    assert list(monitor.per_group_counts()) == [
        group.name for group in cluster.groups]
