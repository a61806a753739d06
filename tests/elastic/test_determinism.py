"""Determinism gates for the elastic control plane."""

import json

from repro.__main__ import main
from repro.experiments.harness import run_scenario
from repro.faults.schedule import FaultSchedule
from repro.workload.cluster import ClusterScenario
from repro.workload.elastic import ElasticScenario

COMMON = dict(n_shards=2, n_hosts=4, n_objects=6, horizon=4.0, seed=7)


def test_elastic_off_is_byte_identical_to_the_plain_cluster():
    # With the controller disabled the elastic harness must reproduce the
    # plain cluster run exactly — same trace, byte for byte.
    plain = run_scenario(ClusterScenario(**COMMON))
    elastic = run_scenario(ElasticScenario(elastic_enabled=False, **COMMON))
    assert elastic.service.trace.digest() == plain.service.trace.digest()


def test_elastic_chaos_runs_are_replayable():
    def once():
        scenario = ElasticScenario(
            n_shards=2, n_hosts=4, n_objects=8, horizon=6.0, seed=3,
            latency_red=0.003, low_watermark=0.0, max_groups=3,
            max_hosts=6)
        schedule = FaultSchedule().flash_crowd(2.0, 1.5, 8.0)
        result = run_scenario(scenario, fault_schedule=schedule,
                              monitor=True)
        return result.service.trace.digest(), result.elastic_summary()

    first_digest, first_summary = once()
    second_digest, second_summary = once()
    assert first_digest == second_digest
    assert first_summary == second_summary


def test_cli_sweep_passes_its_own_identity_gate(tmp_path):
    output = tmp_path / "sweep.json"
    code = main([
        "elastic", "--factors", "1", "8", "--seeds", "0", "--objects", "8",
        "--horizon", "6", "--jobs", "2", "--require-identical",
        "--output", str(output)])
    assert code == 0
    document = json.loads(output.read_text())
    assert document["identical"] is True
    assert document["jobs"] == 2
    assert [run["factor"] for run in document["runs"]] == [1.0, 8.0]
    for run in document["runs"]:
        assert len(run["digest"]) == 64
        assert run["violations"] == {}
        assert run["migration_violations"] == 0
