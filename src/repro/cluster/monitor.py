"""The cluster's invariant monitor is the one every deployment uses.

:class:`~repro.faults.monitor.InvariantMonitor` watches every group of a
cluster through one trace subscription and stamps each finding with its
group.  The name below stays because ``benchmarks/e2e/workloads.py``
imports it (and calls ``add_group`` / ``attach`` / ``violations``).
"""

from repro.faults.monitor import InvariantMonitor

ClusterInvariantMonitor = InvariantMonitor
