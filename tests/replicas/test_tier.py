"""A group's read tier on both topologies: fault targets and knob checks.

A pair's read replicas belong to its group exactly as a shard's do, so
the fault grammar names them the same way — ``replicaK`` on a pair,
``g00/replicaK`` on a cluster — and one check rejects the same bad knobs.
"""

from dataclasses import replace

import pytest

from repro.core.group import resolve_target
from repro.errors import ReplicationError
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.units import ms
from repro.workload.cluster import ClusterScenario
from repro.workload.scenarios import Scenario

#: topology -> (a deployment with one replica per group and readers, the
#: fault target naming its first group's replica).
TOPOLOGIES = {
    "pair": (Scenario(n_objects=4, horizon=3.0, seed=0, n_replicas=1,
                      read_period=ms(5.0)), "replica0"),
    "cluster": (ClusterScenario(n_shards=2, n_hosts=5, n_objects=8,
                                horizon=3.0, seed=0, n_replicas=1,
                                read_period=ms(20.0)), "g00/replica0"),
}


def _faulted(topology, add_fault, probe_at=None):
    """Run the topology under one fault at t=1 s aimed at its replica;
    returns the deployment, the replica, and ``serve_read``'s answer for
    the replica's first object at ``probe_at``."""
    scenario, target = TOPOLOGIES[topology]
    deployment = scenario.build()
    deployment.start()
    replica = resolve_target(deployment.groups, target)
    assert replica is not None and replica.alive
    injector = FaultInjector(deployment, add_fault(FaultSchedule(), target))
    injector.arm()
    answers = []
    if probe_at is not None:
        deployment.sim.schedule_at(probe_at, lambda: answers.append(
            replica.serve_read(min(replica.store.object_ids()))))
    deployment.run(scenario.horizon)
    assert len(injector.applied) == 1
    return deployment, replica, answers


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_replica_fault_targets_act_on_both_topologies(topology):
    # crash: the replica goes down and its group's reads fall back.
    deployment, replica, _ = _faulted(
        topology, lambda schedule, target: schedule.crash(1.0, target))
    assert not replica.alive
    trace = deployment.trace
    assert any(record.time > 1.0 for record in trace.select("read_fallback"))
    assert not any(record.time > 1.0 for record in trace.select(
        "read_served", server=replica.name))

    # kill_host: the host failure crashes its resident replica.
    _, replica, _ = _faulted(
        topology, lambda schedule, target: schedule.kill_host(1.0, target))
    assert not replica.alive

    # isolate: the replica stays up, stops hearing updates, and refuses a
    # read once its staleness provably exceeds δ^B (0.35 s here).
    deployment, replica, answers = _faulted(
        topology, lambda schedule, target: schedule.isolate(1.0, 1.0, target),
        probe_at=1.6)
    assert replica.alive
    assert answers == [False]
    assert any(1.0 < record.time < 2.0 for record in deployment.trace.select(
        "read_refused_stale", server=replica.name))


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("knob, value, message", [
    ("n_replicas", -1, "replicas per group"),
    ("read_period", -0.001, "read period"),
    ("read_policy", "bogus", "read policy"),
])
def test_read_tier_knobs_are_checked_alike_on_both_topologies(
        topology, knob, value, message):
    scenario, _target = TOPOLOGIES[topology]
    with pytest.raises(ReplicationError, match=message):
        replace(scenario, **{knob: value}).build()
