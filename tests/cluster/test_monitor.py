"""The cluster monitor's merged finding streams."""

from repro.cluster.metrics import collect_cluster
from repro.cluster.monitor import ClusterInvariantMonitor
from repro.cluster.service import ClusterService
from repro.core.spec import ServiceConfig
from repro.experiments.harness import RunResult
from repro.net.link import BernoulliLoss
from repro.parallel import outcome_from_result
from repro.units import ms
from repro.workload.cluster import ClusterScenario
from repro.workload.generator import homogeneous_specs


def test_degraded_findings_reach_the_run_outcome():
    # Total loss with the failure detector effectively off: every
    # registration goes unacknowledged and each primary reports its
    # objects ``replication_degraded``.  The cluster monitor used to
    # expose no degraded findings at all, so outcomes reported ``{}``.
    cluster = ClusterService(
        config=ServiceConfig(ping_max_misses=10_000),
        loss_model=BernoulliLoss(1.0), n_shards=2, n_hosts=4)
    cluster.register_all(homogeneous_specs(
        4, window=ms(200.0), client_period=ms(100.0)))
    cluster.start()
    monitor = ClusterInvariantMonitor(cluster)
    monitor.attach()
    cluster.run(3.0)

    assert len(cluster.trace.select("replication_degraded")) == 4
    per_group = {name: group_monitor.degraded_counts()
                 for name, group_monitor in monitor.monitors.items()}
    assert sum(counts.get("replication_degraded", 0)
               for counts in per_group.values()) == 4
    # Merged like violations: time-ordered, stamped with the owning group.
    merged = monitor.degraded
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
