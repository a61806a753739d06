"""The online monitor and the trace collectors decide window lateness alike.

Both keep the oldest write the backup has not applied and call the backup
late once that write is ``allowance`` old; the monitor's allowance is the
window plus its grace.  On a fault-free run they must therefore name the
same episodes: every ``temporal_window`` finding at the instant a
:func:`~repro.metrics.collectors.lateness_episodes` episode begins, one
finding per episode.  The one policy they do not share on such a run is
where watching starts — the collectors at the backup's first apply of the
object, the monitor at its first write — so each object is compared from
its first apply on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import figures
from repro.experiments.catalogue import CATALOGUE
from repro.experiments.harness import run_scenario
from repro.faults.monitor import TEMPORAL_WINDOW
from repro.metrics.collectors import lateness_episodes
from repro.units import ms
from repro.workload.scenarios import Scenario


def decided_episodes(result):
    """Per object: (monitor finding instants, collector episode starts),
    both after the backup's first apply of that object."""
    service = result.service
    monitor, = result.monitors
    horizon = result.scenario.horizon
    decided = {}
    for spec in service.registered_specs():
        applies = service.trace.select("backup_apply", object=spec.object_id)
        if not applies:
            continue
        first_apply = min(record.time for record in applies)
        findings = [
            finding.time for finding in monitor.violations
            if finding.kind == TEMPORAL_WINDOW
            and finding.details["object"] == spec.object_id
            and finding.time > first_apply]
        starts = [
            begin for begin, _ in lateness_episodes(
                service, spec.object_id, horizon,
                allowance=spec.window + monitor.grace)
            if begin > first_apply]
        decided[spec.object_id] = (findings, starts)
    return decided


def assert_deciders_agree(scenario):
    """Run ``scenario`` monitored; returns the number of episodes compared."""
    result = run_scenario(scenario, monitor=True)
    compared = 0
    for object_id, (findings, starts) in decided_episodes(result).items():
        assert findings == pytest.approx(starts, abs=1e-9), object_id
        compared += len(starts)
    return compared


def test_an_episode_opening_while_a_newer_write_pends_is_reported():
    """Regression: the monitor closed an episode only once nothing was
    pending, so an episode that ended while a newer write pended swallowed
    the next one on that object (object 2's at 1.4892 s here: 54 findings
    for 55 episodes)."""
    scenario = Scenario(n_objects=4, window=ms(100.0), client_period=ms(20.0),
                        loss_probability=0.3, horizon=10.0, seed=3)
    result = run_scenario(scenario, monitor=True)
    findings, starts = decided_episodes(result)[2]
    assert 1.4892025600000007 == pytest.approx(starts[3])
    assert findings == pytest.approx(starts, abs=1e-9)
    assert assert_deciders_agree(scenario) == 55


@given(n_objects=st.integers(1, 6),
       window=st.sampled_from([ms(60.0), ms(100.0), ms(200.0)]),
       client_period=st.sampled_from([ms(10.0), ms(20.0), ms(50.0)]),
       loss=st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.4]),
       seed=st.integers(0, 10_000))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_the_deciders_agree_on_lossy_pairs(n_objects, window, client_period,
                                           loss, seed):
    assert_deciders_agree(Scenario(
        n_objects=n_objects, window=window, client_period=client_period,
        loss_probability=loss, horizon=4.0, seed=seed))


def test_the_deciders_agree_on_the_quick_figure_runs(monkeypatch):
    swept = []
    monkeypatch.setattr(figures, "run_specs",
                        lambda specs, jobs=1: swept.extend(specs) or [])
    for entry in ("fig08_distance_vs_loss", "fig09_distance_ac",
                  "fig10_distance_noac", "fig11_inconsistency_normal",
                  "fig12_inconsistency_compressed"):
        CATALOGUE[entry].run(quick=True)
    assert len(swept) == 16
    assert sum(assert_deciders_agree(spec.scenario) for spec in swept) > 0
