"""Integration tests for the sharded cluster service.

These cover the ISSUE's acceptance behaviours: deterministic placement
and digests, per-group failover isolation, full re-placement after a
whole-group host loss (admission re-checked), directory staleness, and
the group-scoped fault-target syntax.
"""

import pytest

from repro.baselines import MultiBackupServer
from repro.cluster.service import CLUSTER_PORT_BASE, ClusterService
from repro.core.group import resolve_target
from repro.core.spec import SchedulingMode, ServiceConfig
from repro.errors import ClusterError, NoRouteError, ReplicationError
from repro.experiments.harness import run_scenario
from repro.faults.schedule import FaultSchedule
from repro.units import ms
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.generator import homogeneous_specs

SMALL = ClusterScenario(n_shards=4, n_hosts=4, n_objects=8, horizon=8.0,
                        seed=0)


# ----------------------------------------------------------------------
# Construction-time gates
# ----------------------------------------------------------------------

def test_rejects_compressed_scheduling():
    config = ServiceConfig(scheduling_mode=SchedulingMode.COMPRESSED)
    with pytest.raises(ClusterError, match="compressed"):
        ClusterService(config)


def test_rejects_deferrable_server():
    config = ServiceConfig(use_deferrable_server=True)
    with pytest.raises(ClusterError, match="deferrable"):
        ClusterService(config)


def test_rejects_impossible_pool_shapes():
    with pytest.raises(ClusterError, match="shard"):
        ClusterService(n_shards=0)
    with pytest.raises(ClusterError, match="backup"):
        ClusterService(backups_per_group=0)
    with pytest.raises(ClusterError, match="distinct hosts"):
        ClusterService(n_hosts=2, backups_per_group=2)
    with pytest.raises(ClusterError, match="rebalance"):
        ClusterService(rebalance_period=0.0)


def test_register_after_start_raises():
    cluster = build_cluster(SMALL)
    cluster.start()
    late = homogeneous_specs(1, window=ms(200), client_period=ms(100),
                             start_id=99)[0]
    with pytest.raises(ClusterError, match="before start"):
        cluster.register(late)


# ----------------------------------------------------------------------
# Steady state
# ----------------------------------------------------------------------

def test_steady_state_places_and_publishes_every_group():
    result = run_scenario(SMALL, monitor=True)
    cluster = result.service
    assert isinstance(cluster, ClusterService)
    assert result.monitor is not None
    assert result.monitor.violations == []
    assert [group.placements for group in cluster.groups] == [1, 1, 1, 1]
    assert [group.parked for group in cluster.groups] == [False] * 4
    assert len(cluster.registered_specs()) == SMALL.n_objects
    for group in cluster.groups:
        assert group.port == CLUSTER_PORT_BASE + group.gid
        primary = group.current_primary()
        backup = group.current_backup()
        assert backup is not None
        assert primary.host.address != backup.host.address
        # The directory routes each group to its own current primary.
        assert cluster.name_service.lookup(group.name) == \
            primary.host.address


def test_same_seed_runs_are_digest_identical():
    first = run_scenario(SMALL)
    second = run_scenario(SMALL)
    assert first.service.trace.digest() == second.service.trace.digest()
    assert first.service.sim.events_executed == \
        second.service.sim.events_executed
    assert first.metrics == second.metrics
    assert first.per_group == second.per_group


def test_cluster_facade_has_no_single_primary():
    cluster = build_cluster(SMALL)
    with pytest.raises(ReplicationError, match="no single primary"):
        cluster.current_primary()
    # The role queries belong to the group view, defined once.
    assert not hasattr(cluster, "current_backup")


# ----------------------------------------------------------------------
# Failover isolation and re-placement
# ----------------------------------------------------------------------

def test_primary_crash_fails_over_only_that_group():
    schedule = FaultSchedule().crash(3.0, "g00/primary")
    scenario = ClusterScenario(n_shards=4, n_hosts=4, n_objects=8,
                               horizon=10.0, seed=0)
    result = run_scenario(scenario, fault_schedule=schedule, monitor=True)
    cluster = result.service
    assert isinstance(cluster, ClusterService)
    assert result.monitor is not None
    assert result.monitor.violations == []
    failovers = cluster.trace.select("failover")
    assert failovers
    assert all(record["new_primary"].startswith("rtpb/g00@")
               for record in failovers)
    # The sweep recruited a spare for the degraded group — and only it.
    spares = cluster.trace.select("cluster_place", event="spare")
    assert {record["group"] for record in spares} == {"rtpb/g00"}
    # Untouched groups kept their initial placement and pair.
    for group in cluster.groups[1:]:
        assert group.placements == 1
        assert len(group.live_members()) == 2


def test_dead_group_is_replaced_on_surviving_hosts():
    # Deterministic targeting: placement is a pure function of the
    # scenario, so a probe build reveals which hosts the victim group
    # occupies before any fault fires.
    scenario = ClusterScenario(n_shards=4, n_hosts=4, n_objects=8,
                               horizon=12.0, seed=0)
    probe = build_cluster(scenario)
    probe.start()
    victim_name = probe.groups[1].name
    doomed = sorted({member.host.address
                     for member in probe.groups[1].members})
    schedule = FaultSchedule()
    for address in doomed:
        schedule.kill_host(6.0, address)
    result = run_scenario(scenario, fault_schedule=schedule, monitor=True)
    cluster = result.service
    assert isinstance(cluster, ClusterService)
    victim = cluster.group_named(victim_name)
    assert victim.placements == 2
    replacements = cluster.trace.select("cluster_place", event="replace")
    assert [record["group"] for record in replacements] == [victim_name]
    # The new incarnation lives on surviving hosts, re-admitted there.
    assert victim.live_members()
    for member in victim.live_members():
        assert member.host.address not in doomed
        assert victim.gid in cluster.slots[member.host.address].charges
    # The dead hosts' budgets were refunded group by group.
    for address in doomed:
        assert cluster.slots[address].charges == {}
    # The group's objects were re-registered and serve reads again.
    assert victim.object_ids()
    assert result.monitor is not None
    assert result.monitor.violations == []


def test_kill_host_is_idempotent_and_validates_the_address():
    cluster = build_cluster(SMALL)
    cluster.start()
    with pytest.raises(ClusterError, match="no host"):
        cluster.kill_host(99)
    cluster.kill_host(1)
    cluster.kill_host(1)
    assert not cluster.slots[1].alive
    assert cluster.placement.live_addresses() == [2, 3, 4]


# ----------------------------------------------------------------------
# The directory's stale-entry guard
# ----------------------------------------------------------------------

def test_stale_directory_entry_raises_instead_of_routing_to_the_dead():
    # Regression for the NameService liveness probe: a whole group dies,
    # nobody has failed over yet (the sweep is parked far in the future),
    # and the name file still holds the dead primary's address.  Routing
    # must refuse it rather than hand clients a dead address.
    scenario = ClusterScenario(n_shards=2, n_hosts=3, n_objects=8,
                               horizon=20.0, rebalance_period=60.0, seed=0)
    cluster = build_cluster(scenario)
    cluster.start()
    cluster.sim.run(until=1.0)
    victim, other = cluster.groups
    published = cluster.name_service.peek(victim.name)
    assert published is not None
    for member in victim.live_members():
        member.crash()
    # peek (no guard) still shows the stale entry; lookup refuses it.
    assert cluster.name_service.peek(victim.name) == published
    with pytest.raises(NoRouteError, match="stale"):
        cluster.name_service.lookup(victim.name)
    # The surviving group keeps routing normally.
    assert cluster.name_service.lookup(other.name) == \
        other.current_primary().host.address


# ----------------------------------------------------------------------
# Fault-target resolution
# ----------------------------------------------------------------------

def test_resolve_fault_target_selectors():
    cluster = build_cluster(SMALL)
    cluster.start()
    cluster.sim.run(until=1.0)
    group = cluster.groups[2]

    def resolve(target):
        return resolve_target(cluster.groups, target)

    primary = resolve("g02/primary")
    assert primary is group.current_primary()
    # Full group names and unpadded gids work too.
    assert resolve(f"{group.name}/primary") is primary
    assert resolve("g2/backup") is group.current_backup()
    assert resolve("g02/spare") is None
    assert resolve("g02/deposed") is None
    assert resolve("g99/primary") is None
    # A bare selector names no group of a four-group cluster; an address
    # names the first member on that host.
    assert resolve("primary") is None
    assert resolve(1) is next(member for g in cluster.groups
                              for member in g.members
                              if member.host.address == 1)


def test_recovered_server_is_announced_to_its_own_group_only():
    # Regression: a recovered server used to be announced to the live
    # primaries of *every* group.  Here g01's primary adopted host 4 —
    # where no g01 member lives — as its first spare, kept re-sending the
    # recruitment there, and never recruited the spare the sweep placed
    # for it: g01 ran backup-less to the horizon.
    scenario = ClusterScenario(n_shards=2, n_hosts=4, n_objects=8,
                               horizon=12.0, seed=0)
    schedule = (FaultSchedule()
                .crash(3.05, "rtpb/g01@host3")
                .crash(3.05, "rtpb/g00@host4")
                .recover(3.1, "rtpb/g00@host4"))
    result = run_scenario(scenario, fault_schedule=schedule,
                          full_trace=True)
    trace = result.service.trace
    placed = [record.time for record
              in trace.select("cluster_place", event="spare")
              if record["group"] == "rtpb/g01"]
    recruited = [record.time for record in trace.select("recruited")
                 if record["server"].startswith("rtpb/g01@")]
    assert placed and recruited
    assert placed[0] <= recruited[0] <= (
        placed[0] + 2 * scenario.rebalance_period)
    assert [record for record in trace.select("recruit_gave_up")
            if record["spare"] == 4] == []


# ----------------------------------------------------------------------
# Over-capacity parking
# ----------------------------------------------------------------------

def test_over_capacity_parks_groups_with_rejection_feedback():
    # Heavy windows on a two-host pool: only some groups fit; the rest
    # are parked with admission feedback and retried (quietly) by every
    # sweep instead of being silently dropped.
    scenario = ClusterScenario(n_shards=8, n_hosts=2, n_objects=64,
                               window=ms(20), horizon=4.0, seed=0)
    result = run_scenario(scenario)
    cluster = result.service
    assert isinstance(cluster, ClusterService)
    parked = [group for group in cluster.groups if group.parked]
    placed = [group for group in cluster.groups if not group.parked]
    assert parked and placed
    # One rejection per parked group: feedback dedupes on transitions.
    assert len(cluster.rejections) == len(parked)
    for rejection in cluster.rejections:
        assert rejection.reason
    for group in parked:
        assert group.members == []
        assert group.placements == 0
    # Placed groups did get their objects admitted and served writes.
    assert result.metrics.admitted == \
        sum(len(group.object_ids()) for group in placed)
    assert result.metrics.response.count > 0


# ----------------------------------------------------------------------
# Multi-backup groups
# ----------------------------------------------------------------------

def test_multibackup_groups_build_and_run():
    scenario = ClusterScenario(n_shards=2, n_hosts=4, n_objects=4,
                               backups_per_group=2, horizon=6.0, seed=0,
                               replication="multi_backup")
    result = run_scenario(scenario, monitor=True)
    cluster = result.service
    assert isinstance(cluster, ClusterService)
    for group in cluster.groups:
        assert len(group.members) == 3
        assert all(isinstance(member, MultiBackupServer)
                   for member in group.members)
        addresses = {member.host.address for member in group.members}
        assert len(addresses) == 3
    assert result.monitor is not None
    assert result.monitor.violations == []
