"""End-to-end determinism: parallel sweeps are byte-identical to serial.

These are the tentpole's acceptance tests: the same specs through
``jobs=1`` and ``jobs>1`` must produce equal outcomes (modulo the one
honest wall-clock field), equal rendered figures, and byte-identical
chaos documents.  Scenarios are deliberately tiny — the property under
test is equality, not performance.
"""

import dataclasses

import pytest

from repro.baselines import DISCIPLINES
from repro.faults.report import run_matrix
from repro.metrics.jsonio import stable_dumps
from repro.parallel import RunSpec, derive_seed, process_support, run_specs
from repro.units import ms
from repro.workload.scenarios import Scenario

pytestmark = pytest.mark.skipif(not process_support(),
                                reason="no process support")


def _tiny_specs():
    return [
        RunSpec(
            scenario=Scenario(n_objects=2, window=ms(200), horizon=4.0,
                              loss_probability=loss,
                              seed=derive_seed(0, "tiny", loss)),
            key=("tiny", loss))
        for loss in (0.0, 0.05, 0.10)
    ]


def _strip_wall(outcome):
    return dataclasses.replace(outcome, wall_s=0.0)


def test_run_specs_identical_across_worker_counts():
    serial = run_specs(_tiny_specs(), jobs=1)
    parallel = run_specs(_tiny_specs(), jobs=4)
    assert [_strip_wall(outcome) for outcome in serial] == \
        [_strip_wall(outcome) for outcome in parallel]
    # Spot-check the fields the BENCH/chaos documents are built from.
    for left, right in zip(serial, parallel):
        assert left.trace_digest == right.trace_digest
        assert left.events_executed == right.events_executed
        assert left.network == right.network
        assert left.key == right.key


def test_figure_series_identical_across_worker_counts():
    from repro.experiments.figures import figure8_distance_vs_loss

    kwargs = dict(loss_probabilities=(0.0, 0.05), write_periods=(ms(100),),
                  n_objects=2, horizon=4.0)
    serial = figure8_distance_vs_loss(jobs=1, **kwargs)
    parallel = figure8_distance_vs_loss(jobs=2, **kwargs)
    assert parallel == serial
    assert parallel.to_table().render() == serial.to_table().render()


def test_fastpath_runs_identical_across_worker_counts():
    """Every replication discipline (among them the fast path's witness
    set, early replies and drains) through the pool: jobs=1 and jobs=4
    must agree digest-for-digest — the same property
    ``repro.bench --compare --require-identical`` gates on."""
    specs = [
        RunSpec(
            scenario=Scenario(n_objects=2, window=ms(200), horizon=4.0,
                              replication=replication,
                              seed=derive_seed(0, "fp", replication)),
            key=(replication,))
        for replication in sorted(DISCIPLINES)
    ]
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=4)
    assert [_strip_wall(outcome) for outcome in serial] == \
        [_strip_wall(outcome) for outcome in parallel]
    for left, right in zip(serial, parallel):
        assert left.trace_digest == right.trace_digest
    # The disciplines genuinely diverge (each changes the trace), so the
    # equality above is not vacuous.
    assert len({outcome.trace_digest for outcome in serial}) == len(specs)


def test_fastpath_chaos_documents_byte_identical():
    names = ["fastpath_backup_crash", "fastpath_primary_failover"]
    serial = stable_dumps(run_matrix(names, seed=0, jobs=1))
    parallel = stable_dumps(run_matrix(names, seed=0, jobs=2))
    assert parallel == serial


def test_chaos_matrix_documents_byte_identical():
    # Fault schedules and the invariant monitor cross the process
    # boundary here — the full RunSpec surface, not just the scenario.
    names = ["degraded_network", "primary_crash_burst_loss"]
    serial = stable_dumps(run_matrix(names, seed=0, jobs=1))
    parallel = stable_dumps(run_matrix(names, seed=0, jobs=2))
    assert parallel == serial


def test_worker_failure_surfaces_original_exception():
    # An unbuildable scenario raises in the worker; the driver must see
    # the real error, not a hung pool or an opaque BrokenProcessPool.
    from repro.errors import ReplicationError

    bad = RunSpec(scenario=Scenario(n_objects=2, window=-1.0, horizon=2.0))
    fine = _tiny_specs()
    with pytest.raises(ReplicationError, match="window"):
        run_specs(fine + [bad], jobs=2)
