"""Cluster integration: replica placement, failure handling, re-recruitment."""

import pytest

from repro.cluster.service import ClusterService
from repro.core.group import resolve_target
from repro.errors import ReplicationError
from repro.faults.monitor import REPLICA_STALENESS
from repro.faults.report import run_chaos
from repro.faults.schedule import FaultSchedule
from repro.replicas.server import ReadReplica
from repro.units import ms
from repro.workload.cluster import ClusterScenario, build_cluster

READY = ClusterScenario(n_shards=2, n_hosts=5, n_objects=8, horizon=8.0,
                        seed=0, n_replicas=1, read_period=ms(20.0))


def test_start_places_one_replica_per_group_off_the_member_hosts():
    cluster = build_cluster(READY)
    cluster.start()
    for group in cluster.groups:
        assert len(group.replicas) == 1
        replica = group.replicas[0]
        member_hosts = {member.host.address for member in group.members}
        assert replica.host.address not in member_hosts
        # Role-tagged directory entry, resolvable through the liveness probe.
        assert cluster.name_service.lookup_roles(group.name) == [
            (replica.role_name, replica.host.address)]
        if group.registered_specs():
            assert group.router is not None
            assert [reader.name for reader in group.readers] == [
                f"{group.name}.reader"]
    placements = cluster.trace.select("cluster_place")
    assert sum(1 for record in placements
               if record["event"] == "replica") == 2


def test_replica_count_and_policy_are_validated():
    # One check serves both topologies, so it raises the base error.
    with pytest.raises(ReplicationError, match="replicas per group"):
        ClusterService(n_replicas=-1)
    with pytest.raises(ReplicationError, match="read policy"):
        ClusterService(read_policy="bogus")


def test_group_scoped_replica_fault_target_resolves():
    cluster = build_cluster(READY)
    cluster.start()
    target = resolve_target(cluster.groups, "g00/replica0")
    assert isinstance(target, ReadReplica)
    assert target is cluster.groups[0].replicas[0]
    assert resolve_target(cluster.groups, "g00/replica7") is None


def test_kill_host_crashes_the_resident_replica_and_the_sweep_recruits():
    from repro.experiments.harness import run_scenario

    probe = build_cluster(READY)
    probe.start()
    doomed = probe.groups[0].replicas[0].host.address
    schedule = FaultSchedule().kill_host(3.0, doomed)
    result = run_scenario(READY, fault_schedule=schedule, monitor=True)
    cluster = result.service
    assert isinstance(cluster, ClusterService)
    # The manager sweep re-recruited a fresh seat with a new role name; the
    # dead seat was retired (its role entry cleared).
    assert [len(group.live_replicas()) for group in cluster.groups] == [1, 1]
    replacement = cluster.groups[0].replicas[0]
    assert replacement.role_name != "replica0"
    assert replacement.host.address != doomed
    places = [record for record in cluster.trace.select("cluster_place")
              if record["event"] == "replica"]
    assert len(places) == 3  # two initial seats + one replacement
    # Directory hygiene: every surviving role entry resolves to a live seat.
    for group in cluster.groups:
        for role, address in cluster.name_service.lookup_roles(group.name):
            replica = group.replica_at(address)
            assert replica is not None and replica.alive
    assert result.monitor is not None
    assert result.monitor.violation_counts().get(REPLICA_STALENESS, 0) == 0


def test_chaos_scenario_holds_the_slo_via_refusal_and_fallback():
    result, report = run_chaos("cluster_replica_outage", seed=0)
    assert report["findings"]["unexpected"] == []
    monitor = result.monitor
    assert monitor is not None
    assert monitor.violation_counts().get(REPLICA_STALENESS, 0) == 0
    service = result.service
    # Both engineered outages forced the read path onto the primary.
    assert service.trace.select("read_fallback")
    assert result.metrics.fallback_rate > 0
    assert result.metrics.slo_violations == 0
    assert report["metrics"]["fallback_rate"] > 0
    assert report["metrics"]["slo_violations"] == 0
