"""The membership machine's transitions, one at a time and end to end."""

from repro.core import membership
from repro.core.membership import (ROLE_BACKUP_WIRE, ROLE_PRIMARY_WIRE,
                                   Role, Seat)
from repro.core.service import BACKUP_ADDRESS, PRIMARY_ADDRESS, RTPBService
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.units import ms
from repro.workload.generator import homogeneous_specs


def _unpaired_primary(spares):
    return membership.initial(Seat("primary", 1, recruit_attempts=2),
                              Role.PRIMARY, spares=spares)


def _pair_with_spares(n_spares, seed=0):
    service = RTPBService(seed=seed, n_spares=n_spares)
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    return service


def test_a_recruit_round_walks_the_spares_in_order_then_stops():
    state, effects = membership.step(_unpaired_primary((3, 4)),
                                     ("spare_noticed", 3))
    assert state.recruit == (3,)
    assert effects == [("send", "recruit", 3), ("retry", 3, 1)]
    state, effects = membership.step(state, ("recruit_retry", 3, 2))
    assert state.recruit == (3, 4)
    assert effects == [("trace", "recruit_gave_up", (("spare", 3),)),
                       ("send", "recruit", 4), ("retry", 4, 1)]
    state, effects = membership.step(state, ("recruit_retry", 4, 2))
    assert state.recruit is None
    assert effects == [("trace", "recruit_gave_up", (("spare", 4),))]


def test_a_dead_first_spare_does_not_leave_the_primary_unpaired():
    """The first spare is down when the backup dies: the round gives it up
    and recruits the second, which sat live and idle before."""
    service = _pair_with_spares(2)
    FaultInjector(service, FaultSchedule()
                  .crash(1.0, "spare3")
                  .crash(2.0, BACKUP_ADDRESS)).arm()
    service.run(12.0)
    assert [record["spare"] for record
            in service.trace.select("recruit_gave_up")] == [3]
    assert service.current_backup() is service.spare_servers[1]
    assert service.primary_server.peer_address == \
        service.spare_servers[1].host.address


def test_a_promoted_primary_pings_as_a_primary():
    """The wire role follows the role: after a failover the new primary's
    pings, and its verdict on a dead recruit, say PRIMARY."""
    service = _pair_with_spares(1, seed=6)
    spare = service.spare_servers[0]
    FaultInjector(service, FaultSchedule()
                  .crash(3.0, PRIMARY_ADDRESS)
                  .crash(6.0, spare.host.address)).arm()
    service.run(9.0)
    promoted = service.backup_server
    assert promoted.role is Role.PRIMARY
    assert promoted.ping.role == ROLE_PRIMARY_WIRE
    verdicts = service.trace.select("peer_declared_dead", who=promoted.name)
    assert [record["role"] for record in verdicts] == [ROLE_BACKUP_WIRE,
                                                       ROLE_PRIMARY_WIRE]
