"""repro.elastic — live shard migration, autoscaling, window degradation.

The elastic control plane over :mod:`repro.cluster`:

- :class:`~repro.elastic.migration.ShardMigration` — traced
  freeze→transfer→barrier→republish hand-off of objects between live
  replication groups, preserving each object's temporal window.
- :class:`~repro.elastic.autoscaler.Autoscaler` — hysteresis controller
  over the collector stream (planned utilization, response percentiles,
  violation counts) emitting scale-out/scale-in decisions.
- :class:`~repro.elastic.shedding.OverloadShedder` — graceful window
  degradation under overload, driven by placement-rejection QoS
  suggestions; restores on cool-down.
- :class:`~repro.elastic.controller.ElasticController` — ties the three
  together: migration waves under placement claims, host recruitment,
  rolling decommission of draining hosts.

:func:`repro.experiments.harness.run_scenario` attaches the controller
when handed an :class:`~repro.workload.elastic.ElasticScenario`;
``python -m repro elastic`` runs the deterministic elastic sweep.
"""

from repro.elastic.autoscaler import Autoscaler
from repro.elastic.controller import ElasticController
from repro.elastic.harness import ELASTIC_TRACE_CATEGORIES
from repro.elastic.migration import (
    MigrationWindowInvariant,
    ShardMigration,
)
from repro.elastic.shedding import OverloadShedder

__all__ = [
    "Autoscaler",
    "ElasticController",
    "ELASTIC_TRACE_CATEGORIES",
    "MigrationWindowInvariant",
    "ShardMigration",
    "OverloadShedder",
]
