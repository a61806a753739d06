"""Category-routed trace dispatch, end to end.

A listener that declares the categories it reads is handed only those, and
a category that no listener reads and the storage filter drops is dead: a
guarded call site skips building its record.  Two properties keep that
cheap and safe: routing changes no finding, action or stored byte, and no
``record`` call in a run is made for a category that goes nowhere.
"""

import collections
import functools

import pytest

from repro.baselines import DISCIPLINES
from repro.elastic.migration import MIGRATION_MISSING_BARRIER, ShardMigration
from repro.experiments.harness import run_scenario
from repro.faults.schedule import FaultSchedule
from repro.sim.trace import Tracer
from repro.units import ms
from repro.workload.cluster import ClusterScenario
from repro.workload.elastic import ElasticScenario
from repro.workload.scenarios import Scenario

from ..baselines.lossy_pairs import run_lossy_pair


def monitored_elastic_run():
    # The crowd trips the latency trigger: a scale-out and a migration,
    # then a failover in the first group.
    scenario = ElasticScenario(
        n_shards=2, n_hosts=4, n_objects=8, horizon=8.0, seed=0,
        latency_red=0.003, low_watermark=0.0, max_groups=3, max_hosts=6)
    schedule = (FaultSchedule().flash_crowd(3.0, 2.0, 8.0)
                .crash(6.0, "g00/primary"))
    return run_scenario(scenario, fault_schedule=schedule, monitor=True)


def subscribe_through_closures(monkeypatch, declared):
    """Subscribe every listener through a plain closure, as a profiling
    wrapper does; the closure carries the listener's declaration only when
    ``declared``.  Returns the count of records the closures were handed."""
    subscribe, unsubscribe = Tracer.subscribe, Tracer.unsubscribe
    closures = {}
    delivered = collections.Counter()

    def closure_for(trace, listener):
        key = (id(trace), listener)
        if key not in closures:
            def closure(record):
                delivered["records"] += 1
                listener(record)
            if declared and hasattr(listener, "categories"):
                closure.categories = listener.categories
            closures[key] = closure
        return closures[key]

    monkeypatch.setattr(Tracer, "subscribe", lambda self, listener: subscribe(
        self, closure_for(self, listener)))
    monkeypatch.setattr(Tracer, "unsubscribe",
                        lambda self, listener: unsubscribe(
                            self, closure_for(self, listener)))
    return delivered


def test_routing_is_only_a_filter(monkeypatch):
    # A migration that skips its barrier gives the migration invariant a
    # finding, and the autoscaler an `invariant_violation` to react to.
    monkeypatch.setattr(ShardMigration, "_poll_barrier",
                        ShardMigration._commit)
    outcomes, deliveries = [], []
    for declared in (True, False):
        with monkeypatch.context() as patch:
            delivered = subscribe_through_closures(patch, declared)
            result = monitored_elastic_run()
        migration = result.monitors[1]
        outcomes.append({
            "violations": result.violations,
            "degraded": result.degraded,
            "actions": result.controller.autoscaler.actions,
            "migration_findings": migration.violations,
            "digest": result.service.trace.digest()})
        deliveries.append(delivered["records"])
    routed, broadcast = outcomes
    assert MIGRATION_MISSING_BARRIER in [
        finding.kind for finding in routed["migration_findings"]]
    assert routed["actions"]
    assert routed == broadcast
    # The undeclared run really took the every-record path.
    assert 0 < deliveries[0] < deliveries[1]


RUNS = {
    "pair_with_two_read_replicas": lambda: run_scenario(Scenario(
        n_objects=8, window=ms(200.0), client_period=ms(100.0),
        n_replicas=2, read_period=ms(1.0), horizon=3.5, seed=4)),
    "cluster": lambda: run_scenario(ClusterScenario(
        n_shards=4, n_hosts=4, n_objects=12, horizon=3.0,
        loss_probability=0.02, seed=4)),
    "monitored_elastic": monitored_elastic_run,
    # Every discipline's record sites, under the loss that drives its
    # acks and retransmissions.
    **{f"lossy_{name}": functools.partial(run_lossy_pair, name)
       for name in DISCIPLINES},
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_no_record_call_goes_nowhere(monkeypatch, run):
    # A record call whose category the filter drops and no subscribed
    # listener declares builds its fields for nothing: its site must be
    # guarded with `enabled()`.  An undeclared listener counts as reading
    # nothing here, so an all-or-nothing subscription fails this too.
    record = Tracer.record
    dead = collections.Counter()

    def counting_record(self, category, **fields):
        kept = self._enabled is None or category in self._enabled
        if not kept and not any(
                category in getattr(listener, "categories", ())
                for listener in self._listeners):
            dead[category] += 1
        record(self, category, **fields)

    monkeypatch.setattr(Tracer, "record", counting_record)
    RUNS[run]()
    assert dict(dead) == {}
