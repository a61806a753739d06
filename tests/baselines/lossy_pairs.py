"""One lossy pair per replication discipline, shared by its digest pin
(``test_lossy_pins``) and the dead-record check (``test_trace_routing``)."""

import functools
from unittest import mock

from repro.core.service import RTPBService
from repro.experiments.harness import run_scenario
from repro.units import ms
from repro.workload import scenarios
from repro.workload.scenarios import Scenario


def run_lossy_pair(replication):
    """Six objects written every 50 ms for 6 s at 20 % loss (seed 6).

    ``multi_backup`` keeps two backups: with one it replays ``rtpb``
    exactly and its fan-out path goes unrun.
    """
    scenario = Scenario(n_objects=6, window=ms(200), client_period=ms(50),
                        horizon=6.0, loss_probability=0.2, seed=6,
                        replication=replication)
    backups = 2 if replication == "multi_backup" else 1
    with mock.patch.object(scenarios, "RTPBService", functools.partial(
            RTPBService, n_backups=backups)):
        return run_scenario(scenario)
