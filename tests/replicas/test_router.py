"""Routing-policy unit tests on hand-positioned replica state.

Each test pins the router's inputs directly — advertised snapshots,
in-flight counters, link distances — so the policy choice is a pure
deterministic function under test, not an emergent property of a run.
"""

import pytest

from repro.core.service import RTPBService
from repro.errors import ReplicationError
from repro.experiments.harness import run_scenario
from repro.faults.schedule import FaultSchedule
from repro.replicas.router import POLICIES, REPLICA_ROLE_PREFIX, ReadRouter
from repro.replicas.single import ReplicaExtension
from repro.units import ms
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.generator import homogeneous_specs, spec_for_window
from repro.workload.scenarios import Scenario, build_scenario


def make_env(n_replicas=3, seed=6):
    service = RTPBService(seed=seed)
    specs = homogeneous_specs(1, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    extension = ReplicaExtension(service, n_replicas)
    service.start()
    # Every replica starts routable: a just-advertised fresh sample.
    for replica in extension.replicas:
        replica.advertised[0] = service.sim.now
    return service, extension, specs[0]


def router_for(service, extension, policy, **kwargs):
    return ReadRouter(
        service.sim, service.name_service, service.service_name,
        resolver=extension.resolve_replica, config=service.config,
        policy=policy, fabric=service.fabric, **kwargs)


def test_unknown_policy_raises():
    service, extension, _spec = make_env(n_replicas=1)
    assert "bogus" not in POLICIES
    with pytest.raises(ReplicationError, match="bogus"):
        router_for(service, extension, "bogus")


def test_round_robin_rotates_in_address_order():
    service, extension, spec = make_env()
    router = router_for(service, extension, "round_robin")
    picks = [router.route(spec) for _ in range(6)]
    ordered = sorted(extension.replicas, key=lambda r: r.host.address)
    assert picks == ordered * 2
    assert router.routed == 6
    assert router.unroutable == 0


def test_freshest_picks_the_lowest_advertised_staleness():
    service, extension, spec = make_env()
    now = service.sim.now
    extension.replicas[0].advertised[0] = now - ms(50)
    extension.replicas[1].advertised[0] = now - ms(5)
    extension.replicas[2].advertised[0] = now - ms(20)
    router = router_for(service, extension, "freshest")
    assert router.route(spec) is extension.replicas[1]


def test_least_loaded_picks_fewest_inflight_reads():
    service, extension, spec = make_env()
    extension.replicas[0].reads_inflight = 3
    extension.replicas[1].reads_inflight = 1
    extension.replicas[2].reads_inflight = 0
    router = router_for(service, extension, "least_loaded")
    assert router.route(spec) is extension.replicas[2]
    # Ties break to the lowest address.
    extension.replicas[2].reads_inflight = 1
    extension.replicas[0].reads_inflight = 1
    ordered = sorted(extension.replicas, key=lambda r: r.host.address)
    assert router.route(spec) is ordered[0]


def test_nearest_minimises_link_distance_from_the_primary():
    service, extension, spec = make_env()
    origin = service.name_service.peek(service.service_name)
    assert origin is not None
    fabric = service.fabric
    fabric.set_link_distance(origin, extension.replicas[0].host.address,
                             ms(5.0))
    fabric.set_link_distance(origin, extension.replicas[1].host.address,
                             ms(1.0))
    fabric.set_link_distance(origin, extension.replicas[2].host.address,
                             ms(3.0))
    router = router_for(service, extension, "nearest")
    assert router.route(spec) is extension.replicas[1]
    # An explicit locality overrides the primary vantage point: from the
    # farthest replica's own host, itself (distance 0) wins.
    mine = extension.replicas[0].host.address
    router = router_for(service, extension, "nearest", locality=mine)
    assert router.route(spec) is extension.replicas[0]


def test_stale_advertisements_disqualify_candidates():
    service, extension, spec = make_env()
    now = service.sim.now
    # Staleness + headroom beyond δ^B: provably unable to honour the bound.
    for replica in extension.replicas:
        replica.advertised[0] = now - spec.delta_backup
    router = router_for(service, extension, "round_robin")
    assert router.route(spec) is None
    assert router.unroutable == 1


def test_dead_replicas_are_filtered_out():
    service, extension, spec = make_env()
    ordered = sorted(extension.replicas, key=lambda r: r.host.address)
    ordered[1].crash()
    router = router_for(service, extension, "round_robin")
    picks = {router.route(spec) for _ in range(4)}
    assert picks == {ordered[0], ordered[2]}


def test_unadvertised_object_is_unroutable():
    service, extension, _spec = make_env()
    foreign = spec_for_window(7, window=ms(200), client_period=ms(100))
    router = router_for(service, extension, "freshest")
    assert router.route(foreign) is None
    assert router.unroutable == 1


# ---------------------------------------------------------------------------
# The cached listing: the router lists, de-duplicates and resolves the name
# file's replica entries once per name-file change and asks the probe,
# ``alive`` and the advertisement on every read.  Held to the from-scratch
# rebuild below at every route() call of whole runs.
# ---------------------------------------------------------------------------


def rebuilt_candidates(router, spec):
    """Candidates from nothing: probed role lookup, resolver, filters."""
    now = router.sim.now
    qualified, seen = [], set()
    for _role, address in router.name_service.lookup_roles(
            router.service_name, prefix=REPLICA_ROLE_PREFIX):
        if address in seen:
            continue
        seen.add(address)
        replica = router.resolver(address)
        if replica is None or not replica.alive:
            continue
        staleness = replica.advertised_staleness(spec.object_id, now)
        if staleness + router.config.read_headroom > spec.delta_backup:
            continue
        qualified.append((address, replica))
    return sorted(qualified, key=lambda pair: pair[0])


@pytest.fixture
def checked_routes(monkeypatch):
    """Every route() first asserts cached == rebuilt; returns the log."""
    log = []
    route = ReadRouter.route

    def checked(router, spec):
        expected = rebuilt_candidates(router, spec)
        assert router.candidates(spec) == expected, router.sim.now
        log.append(tuple(address for address, _replica in expected))
        return route(router, spec)

    monkeypatch.setattr(ReadRouter, "route", checked)
    return log


def test_cached_listing_follows_name_file_and_liveness(checked_routes):
    scenario = Scenario(n_objects=2, horizon=4.0, n_replicas=3,
                        read_period=ms(5.0), seed=8)
    service = build_scenario(scenario)
    extension, = [extension for extension in service.extensions
                  if isinstance(extension, ReplicaExtension)]
    first, second, third = extension.replicas
    names, sim = service.name_service, service.sim
    dead = set()
    steps = [
        # A second role on a live replica's address: one candidate.
        (1.0, lambda: names.publish_role("rtpb", "replica9",
                                         first.host.address)),
        (1.3, second.crash),
        (1.6, second.recover),
        # A probe installed with no name-file change, then one that keeps
        # the address alive through its other role only.
        (1.8, lambda: names.set_liveness_probe(
            lambda name, _address: name not in dead)),
        (1.9, lambda: dead.add("rtpb#replica0")),
        (2.0, lambda: dead.add("rtpb#replica9")),
        (2.1, dead.clear),
        (2.2, lambda: names.unpublish_role("rtpb", "replica9")),
        (2.4, lambda: names.publish_role("rtpb", "replica8", 99)),
        (2.6, third.decommission),
        (2.8, lambda: names.set_liveness_probe(None)),
        (3.0, lambda: names.unpublish_role("rtpb", "replica8")),
    ]
    for at, step in steps:
        sim.schedule_at(at, step)
    service.run(scenario.horizon)
    assert len(checked_routes) > 1000
    third_address = third.host.address
    seen = set(checked_routes)
    assert () in seen  # nothing qualified (warm-up, all probed dead)
    assert any(len(listing) == 3 for listing in seen)
    assert any(third_address not in listing and len(listing) == 2
               for listing in seen)


def test_cached_listing_on_a_probed_cluster(checked_routes):
    scenario = ClusterScenario(
        n_shards=2, n_hosts=6, n_objects=6, horizon=6.0, seed=2,
        replicas_per_group=2, read_period=ms(10.0))
    layout = build_cluster(scenario)
    layout.start()
    assert layout.name_service.liveness_probe is not None
    doomed = layout.groups[1].replicas[0].host.address
    schedule = (FaultSchedule()
                .crash(1.5, "g00/replica0").recover(2.2, "g00/replica0")
                .kill_host(3.0, doomed))
    cluster = run_scenario(scenario, fault_schedule=schedule).service
    assert len(checked_routes) > 1000
    retired = [replica for group in cluster.groups
               for replica in group.retired_replicas]
    assert retired  # the sweep decommissioned the killed host's seat
    assert {len(listing) for listing in checked_routes} >= {1, 2}
