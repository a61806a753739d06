"""The membership protocol of Section 4.4, written once.

Every role or peer change of a replica server is one transition
``step(state, event) -> (state, effects)``: a pure function of a small
frozen :class:`State`, with no simulator, network or clock, so the protocol
can be enumerated on its own.  Events and effects are tuples named by their
first item; the server carries the effects out in order
(:meth:`repro.core.server.ReplicaServer._step`).  docs/CHAOS.md
("Recovery semantics") tabulates the transitions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Tuple

ROLE_PRIMARY_WIRE = 0
ROLE_BACKUP_WIRE = 1


class Role(enum.Enum):
    PRIMARY = "primary"
    BACKUP = "backup"
    SPARE = "spare"


Event = Tuple[Any, ...]
Effect = Tuple[Any, ...]
Result = Tuple["State", List[Effect]]


@dataclass(frozen=True)
class Seat:
    """What a member knows of itself and never changes."""

    name: str
    address: int
    #: The group's backups in takeover order (the same on every member).
    succession: Tuple[int, ...] = ()
    fan_out: bool = False
    failover: bool = True
    #: ``RECRUIT`` sends to one spare before it is given up.
    recruit_attempts: int = 10


@dataclass(frozen=True)
class State:
    """One member's view of its group."""

    seat: Seat
    role: Role
    alive: bool = True
    #: Decommissioned: it never recovers.
    retired: bool = False
    #: A backup's primary, or a primary's backups (a pair has at most one).
    peer: Tuple[int, ...] = ()
    #: Spare addresses, in the order a recruit round tries them.
    spares: Tuple[int, ...] = ()
    #: The spares tried by the open recruit round; None while none is open.
    recruit: Optional[Tuple[int, ...]] = None
    #: A fan-out backup polls the name file for its new primary.
    reattach: bool = False

    @property
    def wire_role(self) -> int:
        """The role this member's pings carry on the wire."""
        return (ROLE_PRIMARY_WIRE if self.role is Role.PRIMARY
                else ROLE_BACKUP_WIRE)


def initial(seat: Seat, role: Role, peer: Tuple[int, ...] = (),
            spares: Tuple[int, ...] = ()) -> State:
    """A member as its group is built (a fan-out primary replicates to the
    whole succession line)."""
    if seat.fan_out and role is Role.PRIMARY:
        peer = seat.succession
    return State(seat, role, peer=peer, spares=spares)


def _trace(category: str, **fields: Any) -> Effect:
    return ("trace", category, tuple(fields.items()))


def step(state: State, event: Event) -> Result:
    """The next state and the effects that carry the transition out."""
    kind, *args = event
    if kind == "recover":
        if state.alive or state.retired:
            return state, []
        return (replace(state, alive=True, role=Role.SPARE, peer=(),
                        recruit=None),
                [("boot",), ("reset_registrations",),
                 _trace("server_recover", server=state.seat.name),
                 ("hook", "recovered")])
    if kind == "decommission":
        if state.retired:
            return state, []
        state, effects = step(state, ("crash",))
        return replace(state, retired=True), effects + [("close",)]
    if not state.alive:
        return state, []
    return _TRANSITIONS[kind](state, *args)


def _crash(state: State) -> Result:
    return (replace(state, alive=False),
            [("halt",), _trace("server_crash", server=state.seat.name,
                               role=state.role.value)])


def _start(state: State) -> Result:
    if state.role is Role.PRIMARY:
        return state, [("publish",), ("transmitter", True)] + _watch(
            state, state.peer)
    if state.role is Role.BACKUP:
        return state, ([("heartbeat", True, None)] if state.peer
                       else []) + [("watchdog", True)]
    return state, []  # a spare is passive until recruited


def _watch(state: State, backups: Tuple[int, ...]) -> List[Effect]:
    """Heartbeats to each backup (a pair's one peer ping)."""
    return [("heartbeat", True, backup if state.seat.fan_out else None)
            for backup in backups]


def _peer_timeout(state: State, entry: Optional[int] = None,
                  rank: int = 0) -> Result:
    seat = state.seat
    if state.role is Role.PRIMARY:
        if seat.fan_out:
            return state, []  # each backup has a heartbeat of its own
        # "If the backup is dead, the primary cancels the 'ping' messages
        # as well as update events for each registered object" ... and
        # then waits to recruit a new backup.
        state, recruit = _open_round(replace(state, peer=()))
        return state, [("hook", "backup_lost"),
                       _trace("backup_lost", server=seat.name),
                       ("transmitter", False),
                       ("reset_registrations",)] + recruit
    if state.role is not Role.BACKUP or not seat.failover:
        return state, []
    unmoved = entry in (None, state.peer[0])
    if not seat.fan_out or (rank == 0 and unmoved):
        return _promote(state)
    # A successor ranks first, or already took over while this detector
    # was still counting misses: follow the name file to it.
    state, reattach = _reattach(replace(state, reattach=True), entry)
    return state, ([_trace("awaiting_new_primary", server=seat.name,
                           rank=rank)] if unmoved else []) + reattach


def _promote(state: State) -> Result:
    """The backup takes over (Section 4.4), then gives itself backups."""
    seat = state.seat
    effects: List[Effect] = [
        ("hook", "failover"), _trace("failover", new_primary=seat.name),
        ("heartbeat", False, None), ("watchdog", False),
        # "changes the address in the name file to its own internet address"
        ("publish",), ("readmit",),
        # "invokes a backup version of the client application at the local
        # machine, feeds the new client with information stored in its
        # memory by an up call"
        ("activate",)]
    state = replace(state, role=Role.PRIMARY, peer=())
    if not seat.fan_out:
        state, recruit = _open_round(state)
        return state, effects + recruit
    # Adopt the rest of the succession.
    return _install(state, tuple(address for address in seat.succession
                                 if address != seat.address), effects)


def _install(state: State, backups: Tuple[int, ...],
             effects: List[Effect]) -> Result:
    """A primary takes on new backups: update tasks, registrations, state
    snapshots, heartbeats."""
    return (replace(state, peer=backups, recruit=None),
            effects + [("transmitter", True), ("sync",)]
            + _watch(state, backups) + [("hook", "backup_joined")])


def _backup_lost(state: State, address: int) -> Result:
    if state.role is not Role.PRIMARY:
        return state, []
    peer = tuple(backup for backup in state.peer if backup != address)
    return replace(state, peer=peer), [
        ("hook", "backup_lost"),
        _trace("backup_lost", server=state.seat.name, backup=address),
        ("heartbeat", False, address)] + ([] if peer else [
            ("transmitter", False)])


def _reattach(state: State, entry: Optional[int]) -> Result:
    """Follow the name file to a new primary once one is published."""
    if not state.reattach:
        return state, []
    if entry is None or entry in (state.peer[:1] + (state.seat.address,)):
        return state, [("poll",)]
    return (replace(state, reattach=False, peer=(entry,)),
            [_trace("reattached", server=state.seat.name, primary=entry),
             ("heartbeat", False, None), ("heartbeat", True, None)])


def _spare_noticed(state: State, address: int) -> Result:
    if address != state.seat.address and address not in state.spares:
        state = replace(state, spares=state.spares + (address,))
    if state.role is Role.PRIMARY and not state.peer:
        # A new round: the last one may have given up while it was down.
        return _open_round(state)
    return state, []


def _open_round(state: State, tried: Tuple[int, ...] = ()) -> Result:
    """Recruit the first spare the round has not tried (a new round when
    ``tried`` is empty); close the round once every spare was tried."""
    untried = [address for address in state.spares if address not in tried]
    if not untried:
        return replace(state, recruit=None), []
    spare = untried[0]
    return _send_recruit(replace(state, recruit=tried + (spare,)), spare, 0)


def _send_recruit(state: State, spare: int, attempt: int) -> Result:
    if state.peer:
        return state, []
    if attempt < state.seat.recruit_attempts:
        return state, [("send", "recruit", spare),
                       ("retry", spare, attempt + 1)]
    state, effects = _open_round(state, state.recruit or state.spares)
    return state, [_trace("recruit_gave_up", spare=spare)] + effects


def _recruit(state: State, primary: int, source: int) -> Result:
    if state.role is not Role.SPARE:
        # Already recruited: re-ack (the first ack may have been lost).
        if state.role is Role.BACKUP and state.peer == (source,):
            return state, [("send", "recruit_ack", source)]
        return state, []
    return (replace(state, role=Role.BACKUP, peer=(primary,)),
            [_trace("recruited", server=state.seat.name, primary=primary),
             ("send", "recruit_ack", source),
             ("heartbeat", True, None), ("watchdog", True)])


def _recruit_ack(state: State, backup: int) -> Result:
    if state.role is not Role.PRIMARY or state.peer:
        return state, []
    spares = tuple(spare for spare in state.spares if spare != backup)
    return _install(replace(state, spares=spares), (backup,),
                    [("reset_registrations",)])


_TRANSITIONS = {
    "start": _start, "crash": _crash, "peer_timeout": _peer_timeout,
    "backup_lost": _backup_lost, "reattach_poll": _reattach,
    "spare_noticed": _spare_noticed, "recruit": _recruit,
    "recruit_ack": _recruit_ack, "recruit_retry": _send_recruit,
}
