"""Every reachable membership state of a small pair, with no simulator.

A breadth-first search over :func:`repro.core.membership.step` for a
primary, its backup and one spare.  Anything may happen at any time:

- a live member whose heartbeat runs may declare its peer dead (a crash,
  or a false suspicion under loss — the detector cannot tell them apart);
- a live member may crash, and a crashed one reboot as a spare, which its
  group announces to every live primary;
- a ``RECRUIT`` or ``RECRUIT_ACK`` in flight may be delivered or lost;
- a pending recruit retry may fire.

Messages in flight are a set (a duplicate is the same message), one
``RECRUIT`` per spare and round is sent before it is given up, and the
search injects one crash: that keeps the space finite and small (a few
seconds).  Before fencing, states with two live primaries are reachable,
and this test lists them by primary set; one is the recruited spare and
the old backup both promoting, as ``primary_crash_burst_loss`` does at
seed 0.  docs/CHAOS.md quotes the numbers asserted here.
"""

from collections import deque
from dataclasses import replace
from functools import lru_cache

from repro.core import membership
from repro.core.membership import Role, Seat

PRIMARY, BACKUP, SPARE = 1, 2, 3
#: Crashes the search may inject in one run (reboots are unbounded).
CRASHES = 1
NAMES = {PRIMARY: "primary", BACKUP: "backup", SPARE: "spare3"}


def _seat(address):
    return Seat(NAMES[address], address, succession=(BACKUP,),
                recruit_attempts=1)


def _initial_world():
    members = (
        membership.initial(_seat(PRIMARY), Role.PRIMARY, peer=(BACKUP,),
                           spares=(SPARE,)),
        membership.initial(_seat(BACKUP), Role.BACKUP, peer=(PRIMARY,),
                           spares=(SPARE,)),
        membership.initial(_seat(SPARE), Role.SPARE))
    world = (members, (False,) * 3, None, frozenset(), frozenset(),
             CRASHES)
    for address in (PRIMARY, BACKUP, SPARE):
        world = _apply(world, address, ("start",))
    return world


def _apply(world, address, event):
    """One member takes one transition; its effects update the world:
    (members, pinging, name-file entry, messages in flight, timers,
    crashes left)."""
    members, pinging, entry, flight, timers, crashes = world
    index = address - 1
    state, effects = membership.step(members[index], event)
    members = members[:index] + (state,) + members[index + 1:]
    beating = pinging[index] and event[0] != "peer_timeout"
    flight, timers = set(flight), set(timers)
    for effect in effects:
        kind = effect[0]
        if kind == "send":
            flight.add((effect[1], address, effect[2]))
        elif kind == "retry":
            timers.add((address, effect[1], effect[2]))
        elif kind == "publish":
            entry = address
        elif kind == "heartbeat" and effect[2] is None:
            beating = effect[1]
        elif kind == "halt":
            beating = False
    pinging = pinging[:index] + (beating,) + pinging[index + 1:]
    if event[0] == "crash":
        crashes -= 1
    return (members, pinging, entry, frozenset(flight), frozenset(timers),
            crashes)


def _successors(world):
    members, pinging, entry, flight, timers, crashes = world
    for state in members:
        address = state.seat.address
        if state.alive:
            if pinging[address - 1]:
                yield _apply(world, address, ("peer_timeout", entry, 0))
            if crashes:
                yield _apply(world, address, ("crash",))
        else:
            rebooted = _apply(world, address, ("recover",))
            for primary in rebooted[0]:
                if primary.alive and primary.role is Role.PRIMARY:
                    rebooted = _apply(rebooted, primary.seat.address,
                                      ("spare_noticed", address))
            yield rebooted
    for message in flight:
        kind, source, target = message
        rest = (members, pinging, entry, flight - {message}, timers,
                crashes)
        yield rest  # lost
        event = (("recruit", source, source) if kind == "recruit"
                 else ("recruit_ack", source))
        yield _apply(rest, target, event)
    for timer in timers:
        address, spare, attempt = timer
        rest = (members, pinging, entry, flight, timers - {timer},
                crashes)
        yield _apply(rest, address, ("recruit_retry", spare, attempt))


@lru_cache(maxsize=1)
def _reachable():
    start = _initial_world()
    seen = {start}
    queue = deque([start])
    while queue:
        for world in _successors(queue.popleft()):
            if world not in seen:
                seen.add(world)
                queue.append(world)
    return seen


def _primaries(world):
    return tuple(sorted(state.seat.name for state in world[0]
                        if state.alive and state.role is Role.PRIMARY))


def test_the_pair_with_one_spare_has_a_finite_enumerated_state_space():
    worlds = _reachable()
    assert len(worlds) == 41401
    split = [world for world in worlds if len(_primaries(world)) >= 2]
    assert len(split) == 37920
    # Distinct member configurations (role, peer, liveness) of the
    # two-primary worlds, whatever is in flight.
    configurations = {
        tuple((state.role.value, state.peer, state.alive)
              for state in world[0]) for world in split}
    assert len(configurations) == 84
    assert {_primaries(world) for world in split} == {
        ("backup", "primary"), ("backup", "spare3"),
        ("primary", "spare3"), ("backup", "primary", "spare3")}


def test_the_recruited_spare_and_the_old_backup_can_both_promote():
    """The two-primary state ``primary_crash_burst_loss`` reaches at seed
    0: a false suspicion makes the primary recruit the spare, then the old
    backup and the recruit each promote once the primary is gone."""
    worlds = _reachable()
    assert any(
        _primaries(world) == ("backup", "spare3")
        and not world[0][PRIMARY - 1].alive
        and world[0][SPARE - 1].peer == ()
        for world in worlds)


def test_no_transition_touches_a_dead_member():
    world = _initial_world()
    world = _apply(world, BACKUP, ("crash",))
    dead = world[0][BACKUP - 1]
    for event in (("peer_timeout", None, 0), ("recruit", 1, 1),
                  ("recruit_ack", 3), ("recruit_retry", 3, 1),
                  ("spare_noticed", 3), ("start",), ("crash",)):
        assert membership.step(dead, event) == (dead, [])
    assert membership.step(replace(dead, retired=True), ("recover",)) == (
        replace(dead, retired=True), [])
