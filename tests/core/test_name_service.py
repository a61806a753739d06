"""Unit tests for the name service."""

import pytest

from repro.core.name_service import NameService
from repro.errors import NoRouteError
from repro.sim.engine import Simulator


def test_publish_and_lookup():
    service = NameService(Simulator())
    service.publish("rtpb", 1)
    assert service.lookup("rtpb") == 1
    assert service.knows("rtpb")


def test_lookup_unknown_raises():
    service = NameService(Simulator())
    with pytest.raises(NoRouteError):
        service.lookup("ghost")
    assert not service.knows("ghost")


def test_republish_overwrites():
    service = NameService(Simulator())
    service.publish("rtpb", 1)
    service.publish("rtpb", 2)
    assert service.lookup("rtpb") == 2


def test_change_history_is_timestamped():
    sim = Simulator()
    service = NameService(sim)
    service.publish("rtpb", 1)
    sim.schedule(5.0, service.publish, "rtpb", 2)
    sim.run(until=10.0)
    assert service.changes == [(0.0, "rtpb", 1), (5.0, "rtpb", 2)]


def test_unpublish_removes_the_entry_and_is_idempotent():
    from repro.core.name_service import UNPUBLISHED

    service = NameService(Simulator())
    service.publish("rtpb", 1)
    service.unpublish("rtpb")
    assert not service.knows("rtpb")
    with pytest.raises(NoRouteError):
        service.lookup("rtpb")
    # Idempotent: a second unpublish (or one for an unknown name) records
    # nothing further.
    service.unpublish("rtpb")
    service.unpublish("ghost")
    assert service.changes == [(0.0, "rtpb", 1), (0.0, "rtpb", UNPUBLISHED)]


def test_unpublish_purges_role_entries_with_the_primary():
    # Regression: decommissioning a group must take its read topology down
    # too — an immediate republish of the same composite name (a migration
    # republishing the group within one tick) must not coexist with stale
    # siblings from the dead incarnation.
    from repro.core.name_service import ROLE_SEPARATOR, UNPUBLISHED

    sim = Simulator()
    service = NameService(sim)
    service.publish("rtpb", 1)
    service.publish_role("rtpb", "replica0", 5)
    service.publish_role("rtpb", "replica1", 6)
    service.unpublish("rtpb")
    assert service.lookup_roles("rtpb") == []
    assert service.peek_role("rtpb", "replica0") is None
    # Both composite removals are recorded, in role order.
    removed = [name for _time, name, address in service.changes
               if address == UNPUBLISHED]
    assert removed == ["rtpb", f"rtpb{ROLE_SEPARATOR}replica0",
                       f"rtpb{ROLE_SEPARATOR}replica1"]
    # Same-tick republish of one composite name: only the new entry lives.
    service.publish("rtpb", 2)
    service.publish_role("rtpb", "replica0", 9)
    assert service.lookup_roles("rtpb") == [("replica0", 9)]


def test_role_entries_are_separate_from_the_primary_entry():
    service = NameService(Simulator())
    service.publish("rtpb", 1)
    service.publish_role("rtpb", "replica0", 5)
    service.publish_role("rtpb", "replica1", 6)
    # Roles never shadow the primary slot, and lookup ignores them.
    assert service.lookup("rtpb") == 1
    assert service.lookup_roles("rtpb") == [("replica0", 5), ("replica1", 6)]
    assert service.peek_role("rtpb", "replica1") == 6
    assert service.peek_role("rtpb", "ghost") is None


def test_role_prefix_filter_selects_read_replicas_only():
    service = NameService(Simulator())
    service.publish_role("rtpb", "replica0", 5)
    service.publish_role("rtpb", "witness", 9)
    assert service.lookup_roles("rtpb", prefix="replica") == [("replica0", 5)]


def test_unpublish_role_is_idempotent_and_records_composite_changes():
    from repro.core.name_service import ROLE_SEPARATOR, UNPUBLISHED

    service = NameService(Simulator())
    service.publish_role("rtpb", "replica0", 5)
    service.unpublish_role("rtpb", "replica0")
    service.unpublish_role("rtpb", "replica0")
    service.unpublish_role("ghost", "replica0")
    assert service.lookup_roles("rtpb") == []
    composite = f"rtpb{ROLE_SEPARATOR}replica0"
    assert service.changes == [(0.0, composite, 5),
                               (0.0, composite, UNPUBLISHED)]


def test_republish_role_overwrites_in_place():
    service = NameService(Simulator())
    service.publish_role("rtpb", "replica0", 5)
    service.publish_role("rtpb", "replica0", 7)
    assert service.lookup_roles("rtpb") == [("replica0", 7)]


def test_role_names_may_not_contain_the_separator():
    service = NameService(Simulator())
    with pytest.raises(ValueError, match="#"):
        service.publish_role("rtpb", "replica#0", 5)
    with pytest.raises(ValueError, match="#"):
        service.publish_role("rt#pb", "replica0", 5)


def test_liveness_probe_filters_role_entries_by_composite_name():
    from repro.core.name_service import ROLE_SEPARATOR

    service = NameService(Simulator())
    service.publish_role("rtpb", "replica0", 5)
    service.publish_role("rtpb", "replica1", 6)
    dead = f"rtpb{ROLE_SEPARATOR}replica0"
    service.set_liveness_probe(lambda name, address: name != dead)
    # Stale role entries are dropped silently (no raise): consumers always
    # have the primary entry to fall back on.
    assert service.lookup_roles("rtpb") == [("replica1", 6)]


def test_liveness_probe_guards_lookup_but_not_peek():
    # Regression for the stale-entry guard: with a probe installed, a dead
    # entry raises on lookup while peek still shows the raw name file.
    service = NameService(Simulator())
    service.publish("rtpb", 1)
    alive = {"rtpb": True}
    service.set_liveness_probe(lambda name, address: alive.get(name, True))
    assert service.lookup("rtpb") == 1
    alive["rtpb"] = False
    with pytest.raises(NoRouteError, match="stale"):
        service.lookup("rtpb")
    assert service.peek("rtpb") == 1
    # Names the probe does not govern keep resolving.
    service.publish("other", 2)
    assert service.lookup("other") == 2
    # Removing the probe restores the paper's trust-the-file behaviour.
    service.set_liveness_probe(None)
    assert service.lookup("rtpb") == 1


@pytest.mark.parametrize("probed", [False, True])
def test_role_listing_follows_every_publish_and_unpublish(probed):
    # lookup_roles keeps one sorted listing per name between changes: each
    # change must show at the very next lookup, and the probe — whose answer
    # may change without the name file changing — is asked on every call.
    service = NameService(Simulator())
    asked = []
    dead = set()

    def probe(name, address):
        asked.append((name, address))
        return name not in dead

    if probed:
        service.set_liveness_probe(probe)
    service.publish("rtpb", 1)
    assert service.lookup_roles("rtpb") == []  # an empty listing is kept too
    service.publish_role("rtpb", "replica1", 6)
    assert service.lookup_roles("rtpb") == [("replica1", 6)]
    service.publish_role("rtpb", "replica0", 5)
    assert service.lookup_roles("rtpb") == [("replica0", 5), ("replica1", 6)]
    assert service.lookup_roles("rtpb", prefix="replica1") == [
        ("replica1", 6)]
    service.publish_role("rtpb", "replica0", 9)  # overwrite in place
    assert service.lookup_roles("rtpb") == [("replica0", 9), ("replica1", 6)]
    service.unpublish_role("rtpb", "replica1")
    assert service.lookup_roles("rtpb") == [("replica0", 9)]
    service.unpublish("rtpb")  # takes the remaining role down with it
    assert service.lookup_roles("rtpb") == []
    service.publish("rtpb", 2)
    service.publish_role("rtpb", "replica0", 7)
    assert service.lookup_roles("rtpb") == [("replica0", 7)]
    service.publish_role("other", "replica0", 8)  # another name's listing
    assert service.lookup_roles("rtpb") == [("replica0", 7)]
    if probed:
        asked.clear()
        assert service.lookup_roles("rtpb") == [("replica0", 7)]
        assert service.lookup_roles("rtpb") == [("replica0", 7)]
        assert asked == [("rtpb#replica0", 7)] * 2
        dead.add("rtpb#replica0")
        assert service.lookup_roles("rtpb") == []
        dead.clear()
        assert service.lookup_roles("rtpb") == [("replica0", 7)]
        service.set_liveness_probe(None)
        dead.add("rtpb#replica0")
        assert service.lookup_roles("rtpb") == [("replica0", 7)]
