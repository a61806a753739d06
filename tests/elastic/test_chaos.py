"""Elastic chaos acceptance: migrations and autoscaling under fire.

The acceptance bar for the elastic subsystem: each scenario completes
with zero temporal-window / split-brain / migration violations while at
least one live migration and one autoscaler action happen *mid-traffic*
(asserted against the trace, not just the counters).
"""

import json

from repro.__main__ import main
from repro.elastic.migration import MIGRATION_MISSING_BARRIER, ShardMigration
from repro.faults.report import run_chaos
from repro.faults.scenarios import SCENARIOS


def test_catalogue_contains_the_elastic_scenarios():
    for name in ("flash_crowd", "rolling_decommission",
                 "scaleup_race_with_failover"):
        assert name in SCENARIOS


def assert_mid_traffic(trace, record, horizon):
    """The event landed strictly inside the run, with client traffic on
    both sides of it — "mid-traffic" in the acceptance criteria."""
    assert 0.0 < record.time < horizon
    responses = trace.select("client_response")
    assert any(response.time < record.time for response in responses)
    assert any(response.time > record.time for response in responses)


def test_flash_crowd_scales_out_with_zero_violations():
    result, document = run_chaos("flash_crowd", seed=0)
    assert document["findings"]["unexpected"] == []
    assert result.violations == []

    controller = result.controller
    assert controller.scale_outs >= 1
    assert controller.hosts_added >= 1
    assert controller.migrations_committed >= 1
    assert len(controller.autoscaler.actions) >= 1
    # The burst is invisible to planned utilization: the latency red line
    # is what tripped.
    assert any("latency" in action["reason"]
               for action in controller.autoscaler.actions)

    trace = result.service.trace
    horizon = result.scenario.horizon
    assert_mid_traffic(trace, trace.select("migration_commit")[0], horizon)
    assert_mid_traffic(trace, trace.select("autoscale")[0], horizon)
    # The grown map is live: the new group ended up owning objects.
    new_group = result.service.groups[-1]
    assert new_group.registered_specs()


def test_scaleup_race_with_failover_aborts_then_retries_to_commit():
    result, document = run_chaos("scaleup_race_with_failover", seed=0)
    assert document["findings"]["unexpected"] == []
    assert result.violations == []

    trace = result.service.trace
    # The crash mid-wave aborts the first attempt; standing pressure
    # relaunches the catch-up wave, which commits.
    aborts = trace.select("migration_abort")
    commits = trace.select("migration_commit")
    assert aborts and commits
    assert min(record.time for record in aborts) < \
        min(record.time for record in commits)
    controller = result.controller
    assert controller.migrations_aborted >= 1
    assert controller.migrations_committed >= 1
    # Every object is owned by exactly one group afterwards.
    cluster = result.service
    owners = [spec.object_id for spec in cluster.registered_specs()]
    assert sorted(owners) == sorted(set(owners))
    assert len(owners) == result.scenario.n_objects
    horizon = result.scenario.horizon
    assert_mid_traffic(trace, commits[0], horizon)
    assert_mid_traffic(trace, trace.select("autoscale")[0], horizon)


def test_rolling_decommission_evacuates_both_hosts_cleanly():
    result, document = run_chaos("rolling_decommission", seed=0)
    assert document["findings"]["unexpected"] == []
    assert result.violations == []

    cluster = result.service
    trace = cluster.trace
    drains = trace.select("cluster_host_drain")
    assert len(drains) == 2
    drained = {slot.address for slot in cluster.slots.values()
               if slot.draining}
    assert len(drained) == 2
    # Evacuated: nothing live remains on a draining host, and every group
    # still has a live primary serving traffic elsewhere.
    for group in cluster.groups:
        for member in group.live_members():
            assert member.host.address not in drained
        assert group.current_primary() is not None
    # Walking two primaries off their hosts forced two clean failovers.
    assert len(trace.select("failover")) >= 2


def test_migration_findings_reach_the_chaos_report_and_fail_the_verb(
        monkeypatch, tmp_path, capsys):
    """A hand-over that skips its reconfiguration barrier is caught by the
    migration invariant — and the finding must not stop at the monitor:
    it is in the report's ``unexpected`` list and the verb exits 1."""
    monkeypatch.setattr(ShardMigration, "_poll_barrier",
                        ShardMigration._commit)
    path = tmp_path / "flash_crowd.json"
    # In process (--jobs 1), so the monkeypatch reaches the run.
    status = main(["chaos", "--scenario", "flash_crowd", "--seed", "0",
                   "--jobs", "1", "--output", str(path)])
    findings = json.loads(path.read_text())["flash_crowd"]["findings"]
    kinds = [finding["kind"] for finding in findings["unexpected"]]
    assert MIGRATION_MISSING_BARRIER in kinds
    assert findings["counts"][MIGRATION_MISSING_BARRIER] >= 1
    assert status == 1
    assert f"UNEXPECTED flash_crowd: {MIGRATION_MISSING_BARRIER}" in \
        capsys.readouterr().err
