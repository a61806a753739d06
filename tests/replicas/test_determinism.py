"""Determinism gates for the read path: worker counts, the sweep CLI and
full-trace digests recorded before the read path was optimised."""

import json

from repro.__main__ import main
from repro.parallel import derive_seed, run_specs
from repro.parallel.spec import RunSpec
from repro.replicas.single import ReplicaExtension
from repro.units import ms
from repro.workload.scenarios import Scenario, build_scenario

#: (trace digest, events executed, records) of the two runs below, taken
#: with the generator-driven reader and writer loops, the per-read role
#: lookup, the queue round trip on an idle CPU and the template digest.
#: A change that claims to keep the read path's behaviour keeps these.
REPLICA_PAIR = (
    "54651acd78f76fe81bf93adb489b390887c2bfe77fc262a04dad44a56a499e0a",
    25655, 39818)
CRASH_AND_RECOVER = (
    "0eec40fbc481c0b9f1905edd240c0648553ba3a351e6f864efa89a83989b70ea",
    12045, 18735)


def _specs():
    return [
        RunSpec(
            scenario=Scenario(n_objects=4, horizon=3.0, n_replicas=count,
                              read_period=ms(5.0),
                              seed=derive_seed(0, "replicas", count)),
            warmup=1.0, key=("replicas", count))
        for count in (0, 2)
    ]


def test_replica_sweep_outcomes_identical_across_worker_counts():
    serial = run_specs(_specs(), jobs=1)
    parallel = run_specs(_specs(), jobs=2)
    assert [outcome.trace_digest for outcome in serial] == \
        [outcome.trace_digest for outcome in parallel]
    # Everything but wall time (host noise) must agree exactly.
    for left, right in zip(serial, parallel):
        assert left.metrics == right.metrics
        assert left.events_executed == right.events_executed
        assert left.trace_records == right.trace_records
        assert left.key == right.key


def test_cli_sweep_passes_its_own_identity_gate(tmp_path):
    output = tmp_path / "sweep.json"
    code = main([
        "replicas", "--replica-counts", "0", "1", "--seeds", "0",
        "--horizon", "2", "--warmup", "0.5", "--read-period", "0.004",
        "--jobs", "2", "--require-identical", "--output", str(output)])
    assert code == 0
    document = json.loads(output.read_text())
    assert document["identical"] is True
    assert document["jobs"] == 2
    assert [run["replicas"] for run in document["runs"]] == [0, 1]
    for run in document["runs"]:
        assert len(run["digest"]) == 64
        assert run["slo_violations"] == 0
    # The zero-replica baseline routes everything to the primary.
    assert document["runs"][0]["fallback_rate"] == 1.0


def _fingerprint(service):
    return (service.trace.digest(), service.sim.events_executed,
            len(service.trace))


def test_replica_pair_with_a_1ms_reader_keeps_its_recorded_trace():
    scenario = Scenario(n_objects=4, horizon=3.0, n_replicas=2,
                        read_period=ms(1.0), seed=11)
    service = build_scenario(scenario)
    service.run(scenario.horizon)
    assert service.trace.select("read_served")
    assert _fingerprint(service) == REPLICA_PAIR


def test_replica_crash_and_recover_keeps_its_recorded_trace():
    scenario = Scenario(n_objects=3, horizon=3.5, n_replicas=2,
                        read_period=ms(2.0), read_policy="freshest", seed=12)
    service = build_scenario(scenario)
    extension, = [extension for extension in service.extensions
                  if isinstance(extension, ReplicaExtension)]
    first, second = extension.replicas
    for at, step in ((1.0, first.crash), (1.6, first.recover),
                     (2.0, second.crash), (2.4, second.recover)):
        service.sim.schedule_at(at, step)
    service.run(scenario.horizon)
    assert len(service.trace.select("server_recover")) == 2
    assert service.trace.select("read_fallback")
    assert _fingerprint(service) == CRASH_AND_RECOVER
