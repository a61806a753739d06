"""ReadReplica behaviour: subscription, sync, apply, and the read contract."""

from repro.core.service import RTPBService
from repro.replicas.server import seat_replicas
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def make_replicated(n_replicas=1, n_objects=2, seed=6, with_client=True):
    service = RTPBService(seed=seed)
    specs = homogeneous_specs(n_objects, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    if with_client:
        service.create_client(specs)
    seat_replicas(service, n_replicas)
    service.start()
    return service, specs


def test_replica_subscribes_and_mirrors_the_catalogue():
    service, specs = make_replicated()
    service.run(3.0)
    replica = service.replicas[0]
    # The resubscribe loop reached the primary and the count mismatch made
    # it push the full catalogue; updates then flowed and applied.
    assert len(replica.store) == len(specs)
    assert replica.updates_applied > 0
    assert service.trace.select("replica_subscribe")
    assert service.trace.select("replica_sync")
    assert service.trace.select("replica_apply", server=replica.name)


def test_advertised_snapshot_never_leads_the_applied_state():
    service, _specs = make_replicated()
    service.run(3.0)
    replica = service.replicas[0]
    assert replica.advertised, "beacon never refreshed the snapshot"
    for object_id, advertised in replica.advertised.items():
        record = replica.store.get(object_id)
        # Conservative by construction: the advertisement is a past
        # beacon-time sample, so routing can only over-estimate staleness.
        assert advertised <= record.source_time + 1e-12


def test_serve_read_honours_the_staleness_bound():
    service, specs = make_replicated()
    replica = service.replicas[0]
    results = []
    service.sim.schedule(
        3.0, lambda: replica.serve_read(
            0, on_complete=lambda value, staleness, response:
            results.append((value, staleness, response))))
    service.run(4.0)
    value, staleness, response = results[0]
    assert isinstance(value, bytes) and len(value) == specs[0].size_bytes
    assert staleness <= specs[0].delta_backup + 1e-9
    assert response > 0
    served = service.trace.select("read_served", object=0)
    assert served and served[0]["server"] == replica.name


def test_serve_read_refuses_an_unwritten_object():
    # No client: the catalogue syncs but nothing is ever written, so the
    # provable staleness is infinite and the read must be refused.
    service, _specs = make_replicated(with_client=False)
    service.run(2.0)
    replica = service.replicas[0]
    assert len(replica.store) == 2
    assert not replica.serve_read(0)
    assert replica.reads_refused == 1
    refused = service.trace.select("read_refused_stale", object=0)
    assert refused and refused[0]["late"] is False


def test_read_that_ages_past_the_bound_is_refused_late():
    """Admission passes, but CPU queueing grows staleness past δ^B."""
    service, specs = make_replicated(with_client=False)
    service.run(1.0)
    replica = service.replicas[0]
    now = service.sim.now
    bound = specs[0].delta_backup
    # Plant a sample fresh enough to admit but older than the bound by the
    # time the costed RPC job (rpc_read_cost = 0.2 ms) completes.
    margin = ms(0.05)
    assert margin < service.config.rpc_read_cost
    replica.store.apply_update(0, now, 1, now, now - bound + margin, b"x")
    rejected = []
    accepted = replica.serve_read(0, on_reject=lambda: rejected.append(True))
    assert accepted
    service.run(2.0)
    assert rejected == [True]
    refused = service.trace.select("read_refused_stale", object=0)
    assert refused and refused[-1]["late"] is True
    assert not service.trace.select("read_served", object=0)


def test_crash_recover_resubscribes_and_resumes():
    service, _specs = make_replicated()
    replica = service.replicas[0]
    service.sim.schedule(2.0, replica.crash)
    service.sim.schedule(4.0, replica.recover)
    results = []
    service.sim.schedule(
        7.0, lambda: replica.serve_read(
            0, on_complete=lambda *args: results.append(args)))
    service.run(8.0)
    apply_times = [record.time for record in service.trace.select(
        "replica_apply", server=replica.name)]
    assert any(time < 2.0 for time in apply_times)
    assert not [time for time in apply_times if 2.0 < time < 4.0]
    # Recovery re-published the role, resubscribed, and caught back up far
    # enough to serve within the bound again.
    assert any(time > 4.0 for time in apply_times)
    assert len(results) == 1


def test_decommission_clears_the_role_entry_and_refuses_reads():
    service, _specs = make_replicated()
    service.run(2.0)
    replica = service.replicas[0]
    assert service.name_service.lookup_roles("rtpb") == [
        ("replica0", replica.host.address)]
    replica.decommission()
    assert service.name_service.lookup_roles("rtpb") == []
    assert not replica.serve_read(0)
    # Decommission is terminal: recover must not resurrect the replica.
    replica.recover()
    assert not replica.alive
