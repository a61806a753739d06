"""Documented failure behaviour of the active-replication baseline.

The baseline has fixed membership (no view change): a crashed member stalls
the group — the availability price of all-ack atomicity.  These tests pin
that documented behaviour down so it cannot silently change.
"""

import pytest

from repro.baselines.active import ActiveReplica
from repro.core.service import RTPBService
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def make_running(n_replicas=2, seed=9):
    service = RTPBService(server_class=ActiveReplica,
                          n_backups=n_replicas - 1, seed=seed)
    specs = homogeneous_specs(2, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    return service, specs


def test_member_crash_stalls_responses():
    service, _specs = make_running()
    service.injector.crash_at(3.0, service.backup_server)
    service.run(8.0)
    # Writes issued after the crash never complete: no ack will ever come.
    late_responses = [record for record in
                      service.trace.select("client_response")
                      if record["issue"] > 3.1]
    assert late_responses == []
    # The sequencer keeps retrying (bounded only by the run horizon).
    retries = service.trace.select("update_sent", retransmission=True)
    assert retries


def test_sequencer_crash_stops_service():
    service, specs = make_running()
    service.injector.crash_at(3.0, service.primary_server)
    service.run(8.0)
    # Clients find the published address dead and refuse locally; there is
    # no failover in this baseline.
    assert service.clients[0].writes_refused > 20
    member = service.backup_server
    # The member's state is frozen at the crash point.
    frozen = {spec.object_id: member.store.get(spec.object_id).seq
              for spec in specs}
    service.run(10.0)
    for spec in specs:
        assert member.store.get(spec.object_id).seq == \
            frozen[spec.object_id]


def test_crash_before_any_write_is_clean():
    service, _specs = make_running()
    service.injector.crash_at(0.0, service.backup_server)
    service.run(2.0)  # must not raise
    assert not service.backup_server.alive
