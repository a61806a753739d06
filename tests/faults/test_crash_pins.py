"""Scripted crashes are fault-schedule entries: the runs below pin what the
crash scripts do to the model, whatever seam armed them.

The values were recorded while these runs still scheduled their crashes
straight on the simulator (``server.crash`` / ``server.recover`` events,
no ``fault_injected`` record).  Arming the same instants as
:class:`FaultSchedule` entries at the same program point must move no
event: the counters and every metric record stay equal, and only
``fault_injected`` — left out of the narrowed trace here — is new.
"""

import pytest

from repro.core.server import Role
from repro.core.service import BACKUP_ADDRESS, RTPBService
from repro.experiments import studies
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.metrics.collectors import METRIC_TRACE_CATEGORIES
from repro.units import ms
from repro.workload.generator import homogeneous_specs

PINNED_CATEGORIES = [category for category in METRIC_TRACE_CATEGORIES
                     if category != "fault_injected"]

#: ping period -> (events executed, peak pending events, records, digest)
#: of ``run_failover(period, 10.0)`` (seed 4).
FAILOVER = {
    ms(50): (3647, 25, 1211, "365c59d0f2cc72c175e27c4f4df00664"
                             "af383bd281b54bba1e56eba0f624de30"),
    ms(200): (2411, 25, 1190, "05dce56be013b72db654f016cc2c841c"
                              "5c029e71614a2d82861aae8f98abb34c"),
}
#: The backup crash (2 s) -> recover (4 s) -> re-recruit pair below.
REJOIN = (3010, 25, 1354, "c260ee268b4c46d749bd0765dc8acc3b"
                          "dcfee0d24c2817d48e978c76a29da798")


class _Narrowed(RTPBService):
    """A pair whose trace keeps only the pinned categories from birth."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace.enable_only(*PINNED_CATEGORIES)


def _fingerprint(service):
    return (service.sim.events_executed, service.sim.peak_pending_events,
            len(service.trace), service.trace.digest())


@pytest.mark.parametrize("ping_period", sorted(FAILOVER))
def test_run_failover_matches_its_pin(monkeypatch, ping_period):
    monkeypatch.setattr(studies, "RTPBService", _Narrowed)
    service = studies.run_failover(ping_period, 10.0)
    assert _fingerprint(service) == FAILOVER[ping_period]


def test_backup_crash_recover_rerecruit_matches_its_pin():
    service = _Narrowed(seed=5)
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    FaultInjector(service, FaultSchedule()
                  .crash(2.0, BACKUP_ADDRESS)
                  .recover(4.0, BACKUP_ADDRESS)).arm()
    service.run(12.0)
    assert _fingerprint(service) == REJOIN
    assert len(service.trace.select("recruited")) == 1
    assert service.backup_server.role is Role.BACKUP


def test_a_pair_has_one_fault_seam():
    """Crashes are scripted through a fault schedule only: a pair carries
    no crash scheduler of its own."""
    assert not hasattr(RTPBService(), "injector")
