"""The datagram path, traced in full, against a recorded digest.

The message path guards its per-datagram trace records with
``trace.enabled(...)`` and avoids copying bytes it does not need to copy.
Both are only sound if nothing observable changes when the guarded
categories are *live*.  This run keeps every category stored, attaches a
listener, and turns on loss, duplication and corruption so that
``link_send`` / ``link_deliver`` / ``link_drop`` / ``link_duplicate`` /
``link_corrupt`` / ``udp_drop`` / ``ip_drop`` all fire; its full-trace
digest was recorded before the path was optimised (commit ``bd65ab1``) and
must never move for a change that claims to keep the wire and the trace.
"""

from repro.core.service import BACKUP_ADDRESS, RTPBService
from repro.net.link import BernoulliLoss
from repro.units import ms
from repro.workload.generator import homogeneous_specs

RECORDED_DIGEST = (
    "415c283391a183e1fbffd4ff5c880289845168412280bffa37632aec28264103")
RECORDED_EVENTS = 5300

#: Every category the run records; the network ones are what this test is for.
RECORDED_CATEGORIES = (
    "link_send", "link_deliver", "link_drop", "link_duplicate",
    "link_corrupt", "udp_drop", "ip_drop", "rtpb_garbled",
    "registration", "registration_replicated", "name_update",
    "job_release", "job_finish", "primary_write", "client_response",
    "update_sent", "backup_apply", "backup_apply_stale", "retx_request",
    "ping_miss")

#: The fabric categories whose call sites sit behind ``trace.enabled``.
GUARDED = ("link_send", "link_deliver", "link_drop")


def _run(listen, drop_categories=()):
    service = RTPBService(seed=11, loss_model=BernoulliLoss(0.05))
    service.fabric.set_duplication(0.05)
    service.fabric.set_corruption(0.08)
    seen = []
    if listen:
        service.sim.trace.subscribe(seen.append)
    if drop_categories:
        service.sim.trace.enable_only(
            *(set(RECORDED_CATEGORIES) - set(drop_categories)))
    service.register_all(
        homogeneous_specs(4, window=ms(100.0), client_period=ms(40.0)))
    service.create_client(service.registered_specs())
    # A datagram nobody listens for: the udp_drop no-listener arm.
    stray = service.primary_server.host.udp_endpoint(6000)
    service.sim.schedule(1.0, stray.send, BACKUP_ADDRESS, 6001,
                         b"nobody-home")
    service.run(horizon=8.0)
    return service, seen


def test_full_trace_digest_matches_recorded():
    service, seen = _run(listen=True)
    trace = service.sim.trace
    counts = trace.categories()
    assert set(counts) == set(RECORDED_CATEGORIES)
    reasons = {record["reason"] for record in trace.select("udp_drop")}
    assert reasons == {"checksum", "no-listener"}
    # The listener saw exactly what was stored, in order.
    assert seen == list(trace)
    assert service.sim.events_executed == RECORDED_EVENTS
    assert trace.digest() == RECORDED_DIGEST


def test_guarded_categories_vanish_without_perturbing_the_rest():
    """With the guarded categories dead, their call sites are skipped;
    every other record, and the event count, must be exactly as before."""
    full, _ = _run(listen=False)
    narrowed, _ = _run(listen=False, drop_categories=GUARDED)
    assert narrowed.sim.events_executed == full.sim.events_executed
    assert list(narrowed.sim.trace) == [
        record for record in full.sim.trace
        if record.category not in GUARDED]
