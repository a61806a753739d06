"""The two workers over a :class:`RunSpec` measure the same run.

Figures and tables read :func:`measure`; run documents read
:func:`execute`.  Each case is one figure family's shape, so a worker
that drifted from the other would move a committed table without moving
any document, or the reverse.
"""

import pytest

from repro.faults.schedule import FaultSchedule
from repro.parallel import RunSpec, execute, measure
from repro.units import ms
from repro.workload.elastic import ElasticScenario
from repro.workload.scenarios import Scenario

CASES = {
    # Figure 8: a lossy pair.
    "lossy_pair": RunSpec(Scenario(
        n_objects=8, window=ms(200.0), client_period=ms(100.0),
        loss_probability=0.06, horizon=4.0, seed=11)),
    # The Figure 6-7 fast-path overlay: both disciplines.
    "eager_pair": RunSpec(Scenario(
        n_objects=8, window=ms(200.0), client_period=ms(100.0),
        replication="eager", horizon=4.0, seed=12)),
    "eager_fastpath_pair": RunSpec(Scenario(
        n_objects=8, window=ms(200.0), client_period=ms(100.0),
        replication="eager_fastpath", horizon=4.0, seed=12)),
    # Figures 13-14: a pair with two read replicas.
    "read_replicas": RunSpec(Scenario(
        n_objects=8, window=ms(200.0), n_replicas=2, read_period=ms(2.0),
        horizon=4.0, seed=13)),
    # Figure 15: a monitored elastic cluster through a flash crowd.
    "elastic_flash_crowd": RunSpec(
        ElasticScenario(n_shards=2, n_hosts=4, n_objects=12,
                        window=ms(200.0), horizon=7.0, latency_red=0.003,
                        low_watermark=0.0, max_groups=3, max_hosts=6,
                        seed=14),
        fault_schedule=FaultSchedule().flash_crowd(3.0, 2.0, 4.0),
        monitor=True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_measure_is_the_metrics_of_execute(name):
    spec = CASES[name]
    measured = measure(spec)
    assert measured.response.count > 0
    assert measured == execute(spec).metrics
