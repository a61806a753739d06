"""Integration tests for the eager + fast-path baseline.

The fast path must (a) measurably cut eager-mode response time in steady
state, (b) fall back to defer-until-ack for constraint-coupled writes, and
(c) drain the witness set across every failover/re-pair transition before
answering early again — all without tripping the invariant monitor.
"""

import pytest

from repro.baselines.eager import EagerServer
from repro.baselines.fastpath import FastPathEagerServer
from repro.core.server import Role
from repro.core.service import RTPBService
from repro.core.spec import InterObjectConstraint
from repro.metrics.summary import collect_metrics
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def run_service(cls, seed=5, horizon=10.0, n_objects=4, n_spares=0,
                specs_hook=None, crash=None):
    service = RTPBService(server_class=cls, seed=seed, n_spares=n_spares)
    specs = homogeneous_specs(n_objects, window=ms(200),
                              client_period=ms(100))
    service.register_all(specs)
    if specs_hook is not None:
        specs_hook(service)
    service.create_client(specs)
    if crash is not None:
        service.start()
        at, target = crash
        service.injector.crash_at(at, target(service))
    service.run(horizon)
    return service


def test_fastpath_cuts_eager_response_time():
    eager = run_service(EagerServer)
    fast = run_service(FastPathEagerServer)
    eager_mean = collect_metrics(eager, eager.sim.now, 2.0).response.mean
    fast_mean = collect_metrics(fast, fast.sim.now, 2.0).response.mean
    # Eager pays the full replication round trip; the fast path answers
    # after the local RPC.  The gap must be at least one ell (5 ms).
    assert fast_mean < eager_mean - ms(5)


def test_fastpath_hit_rate_is_total_without_constraints():
    service = run_service(FastPathEagerServer)
    assert collect_metrics(service, service.sim.now, 2.0).fastpath_hit_rate == 1.0
    assert service.primary_server.fastpath_fast_replies > 0
    commits = service.trace.select("fastpath_commit")
    assert commits
    assert {record["rule"] for record in commits} == {"commute"}


def test_fastpath_tags_response_records():
    service = run_service(FastPathEagerServer)
    responses = service.trace.select("client_response")
    assert responses
    assert all(record["path"] in ("fast", "deferred")
               for record in responses)
    metrics = collect_metrics(service, service.sim.now, 2.0)
    assert metrics.fast_response.count > 0


def test_plain_eager_records_stay_untagged():
    """With the fast path off, eager emits the exact legacy record shape —
    digest compatibility for every pre-fastpath trace."""
    service = run_service(EagerServer)
    responses = service.trace.select("client_response")
    assert responses
    assert all("path" not in record.fields for record in responses)


def test_constrained_partner_defers_writes():
    """Writes scripted 2 ms apart on a constrained pair: the second lands
    while the first is still unsynced and must take the deferred path; the
    leading write of each round commutes (the partner acked ~90 ms ago)."""
    from repro.workload.scripted import ScriptedClient

    service = RTPBService(server_class=FastPathEagerServer, seed=7)
    specs = homogeneous_specs(2, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    decision = service.add_constraint(InterObjectConstraint(0, 1, ms(100)))
    assert decision.accepted
    schedule = [event for k in range(20)
                for event in ((2.0 + k * 0.1, 0), (2.002 + k * 0.1, 1))]
    client = ScriptedClient(
        service.sim, service.environment, service.name_service,
        service.service_name, resolver=service.resolve_server,
        schedule=schedule)
    service.start()
    client.start()
    service.run(8.0)
    primary = service.primary_server
    assert primary.fastpath_deferred_writes > 0
    assert primary.fastpath_fast_replies > 0
    assert 0.0 < collect_metrics(service, service.sim.now, 0.0).fastpath_hit_rate < 1.0
    # The deferred writes still complete — through the ack, not early.
    deferred = [record for record
                in service.trace.select("client_response", object=1)
                if record["path"] == "deferred"]
    assert deferred


def _drain_phases(service, after=0.0):
    return [(record.time, record["phase"], record.get("reason"))
            for record in service.trace.select("fastpath_drain")
            if record.time >= after]


def test_failover_drains_witness_before_fast_replies():
    service = run_service(
        FastPathEagerServer, n_spares=1, horizon=20.0,
        crash=(3.0, lambda s: s.primary_server))
    assert service.backup_server.role is Role.PRIMARY
    phases = _drain_phases(service)
    assert [phase for _t, phase, _r in phases] == \
        ["start", "reseed", "complete"]
    assert phases[0][2] == "failover"
    start_time, complete_time = phases[0][0], phases[-1][0]
    commits = service.trace.select("fastpath_commit")
    # No early answer between the takeover and the drain's completion:
    # every commit in that window would be against a backup that has not
    # confirmed the reseeded state.
    assert not [record for record in commits
                if start_time <= record.time < complete_time]
    # Fast replies resume once the recruited backup has acked everything.
    assert [record for record in commits if record.time > complete_time]


def test_backup_loss_drains_and_resumes_after_recruit():
    service = run_service(
        FastPathEagerServer, n_spares=1, horizon=20.0,
        crash=(3.0, lambda s: s.backup_server))
    phases = _drain_phases(service)
    assert [phase for _t, phase, _r in phases] == \
        ["start", "reseed", "complete"]
    assert phases[0][2] == "backup_lost"
    complete_time = phases[-1][0]
    assert [record for record in service.trace.select("fastpath_commit")
            if record.time > complete_time]
    # The recruited spare converged: it holds every object's stream.
    new_backup = service.current_backup()
    assert new_backup is service.spare_servers[0]
    for object_id in range(4):
        assert new_backup.store.get(object_id).seq > 0


def test_unpaired_primary_never_answers_early():
    """No spare to recruit: after losing the backup the primary must stay
    on the deferred path (and those writes flush degraded — there is no
    backup to ack them)."""
    service = run_service(
        FastPathEagerServer, n_spares=0, horizon=12.0,
        crash=(3.0, lambda s: s.backup_server))
    primary = service.primary_server
    assert primary.peer_address is None
    detect = max(record.time
                 for record in service.trace.select("peer_declared_dead"))
    commits = service.trace.select("fastpath_commit")
    assert not [record for record in commits if record.time > detect]
    # Post-death writes cannot be acked by anyone: each is answered
    # degraded immediately (reason "unpaired"); anything caught in flight
    # at detection time flushes with reason "backup_lost".
    degraded = service.trace.select("client_response_degraded")
    assert degraded
    reasons = {record["reason"] for record in degraded}
    assert "unpaired" in reasons
    assert reasons <= {"backup_lost", "unpaired"}
