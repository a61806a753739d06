"""Collection reads each trace row once, however many views it fills.

The collection pass credits each record to its object's group as it goes,
so filling the whole deployment's metrics and every group's takes one
``Tracer.select`` per category and one iteration over its rows — not one
query per group and object, nor a re-read per metric.
"""

from collections import Counter

import pytest

from repro.cluster.metrics import collect_cluster
from repro.experiments.harness import collect
from repro.sim.trace import Tracer
from repro.units import ms
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.scenarios import Scenario, build_scenario

WARMUP = 2.0


class CountedSelection:
    """Selections, joined by ``+``, that tally the rows iterated out of
    each by its category."""

    def __init__(self, parts, rows):
        self.parts, self.rows = parts, rows

    def __len__(self):
        return sum(len(found) for found, _ in self.parts)

    def __add__(self, other):
        return CountedSelection(self.parts + other.parts, self.rows)

    def __radd__(self, other):  # an uncounted selection on the left
        return CountedSelection([(other, None)] + self.parts, self.rows)

    def __iter__(self):
        for found, category in self.parts:
            for record in found:
                self.rows[category] += 1
                yield record


@pytest.fixture
def reads(monkeypatch):
    """(select calls, rows iterated), by category, from now on."""
    calls, rows = Counter(), Counter()
    select = Tracer.select

    def counted(tracer, category, **matches):
        calls[category] += 1
        return CountedSelection(
            [(select(tracer, category, **matches), category)], rows)

    monkeypatch.setattr(Tracer, "select", counted)
    return calls, rows


def assert_each_row_read_once(trace, calls, rows):
    stored = trace.categories()
    assert calls, "collection selected nothing"
    for category, count in calls.items():
        assert count == 1, f"{category} selected {count} times"
    for category, count in rows.items():
        assert count <= stored[category], \
            f"{category}: {count} rows read, {stored[category]} stored"


def test_a_sixteen_group_cluster_is_collected_in_one_read(reads):
    scenario = ClusterScenario(n_shards=16, n_hosts=6, n_objects=48,
                               horizon=4.0, seed=4, loss_probability=0.02)
    cluster = build_cluster(scenario)
    cluster.trace.enable_only(*scenario.trace_categories)
    cluster.run(scenario.horizon)
    calls, rows = reads
    calls.clear()
    rows.clear()
    bundle = collect_cluster(cluster, scenario.horizon, WARMUP)
    assert len(bundle.per_group) == 16
    assert bundle.cluster.response.count > 0
    assert_each_row_read_once(cluster.trace, calls, rows)
    assert rows["client_response"] == \
        cluster.trace.categories()["client_response"]


def test_a_read_replica_pair_is_collected_in_one_read(reads):
    scenario = Scenario(n_objects=4, window=ms(200.0),
                        client_period=ms(100.0), horizon=4.0, seed=4,
                        n_replicas=2, read_period=ms(5.0))
    service = build_scenario(scenario)
    service.trace.enable_only(*scenario.trace_categories)
    service.run(scenario.horizon)
    calls, rows = reads
    calls.clear()
    rows.clear()
    metrics = collect(scenario, service, WARMUP)
    assert metrics.read_staleness.count > 0
    assert_each_row_read_once(service.trace, calls, rows)
    assert rows["read_served"] == service.trace.categories()["read_served"]
