"""Each replication discipline's lossy pair replays to its pinned digest.

Only a lossy run exercises a discipline's ack and retransmission order.
That order can move without any hash-seed ``cmp`` seeing it: a set of int
tuples iterated into a send, a schedule or a trace record replays exactly
under every ``PYTHONHASHSEED``, just in an order nobody chose.  Answering
eager's acked writes in set order instead of sequence order moves the
``eager`` pin here and nothing else in the suite.
"""

import pytest

from repro.baselines import DISCIPLINES

from .lossy_pairs import run_lossy_pair

#: discipline -> (events executed, trace digest) of its lossy pair; a
#: discipline added to ``DISCIPLINES`` fails here until it has one.
PINS = {
    "rtpb": (3458, "81db332e264356b1316c42b24998d150"
                   "86ea189b0460dcaa38862a3e992a87b3"),
    "window_consistent": (3970, "616842e0a406ed52cc45033c3267c9bb"
                                "f6f362d3501868aa8bd80f0f24eeae96"),
    "eager": (6741, "37ce6e086b8d9697a2ffa0060d537fa7"
                    "6ae1a0935de233b494d55dc580830cdc"),
    "eager_fastpath": (6741, "f1b63a27746da2db5fbb4767b8a4c4bb"
                             "54bf9d59466997a41c5c8a7f8a051be0"),
    "active": (6614, "a30a28a728b6403fd09b8de8a545a1a9"
                     "1d405545b279b5642eabb4096b6a98de"),
    "semi_active": (6614, "5b4ec919f1e410bd041be41827a0b6e9"
                          "b6a65b45d4bf9c182cc3e06c235f3771"),
    "multi_backup": (4717, "51cdc1f9072e63e2a7b2974e34fe1fa0"
                           "1d25159f451d8f30f180ef7acc72651b"),
}


@pytest.mark.parametrize("replication", sorted(DISCIPLINES))
def test_lossy_pair_matches_its_pin(replication):
    service = run_lossy_pair(replication).service
    assert (service.sim.events_executed,
            service.trace.digest()) == PINS[replication]
