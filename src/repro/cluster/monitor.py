"""Cluster-wide invariant checking: one monitor per replication group.

:class:`ClusterInvariantMonitor` instantiates a per-group
:class:`~repro.faults.monitor.InvariantMonitor` over each group, so
split-brain, missed-failover and temporal-window checks are *scoped to the
shard*: two groups legitimately running one primary each never look like
a split brain, and a crash in group 3 cannot charge a violation to group
7.  Every violation bubbles up into one
merged, detection-ordered list with the owning group stamped into its
details; degraded-state findings merge the same way.

Construct it **after** ``cluster.start()`` — a group's window table is
seeded from its registered specs, which exist only once the group has
been placed (the per-group monitors also re-seed themselves on
``cluster_place`` records, so re-placements are tracked automatically).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.faults.monitor import (
    InvariantMonitor,
    InvariantViolation,
    kind_counts,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.service import ClusterService, ShardGroup


class ClusterInvariantMonitor:
    """Per-group invariant monitors with a merged violation stream."""

    def __init__(self, cluster: "ClusterService",
                 grace: Optional[float] = None,
                 failover_margin: float = 0.1) -> None:
        self.cluster = cluster
        self._grace = grace
        self._failover_margin = failover_margin
        self._attached = False
        #: Merged violations across all groups, in detection order; each
        #: carries ``group=<group name>`` in its details.
        self.violations: List[InvariantViolation] = []
        self.monitors: Dict[str, InvariantMonitor] = {}
        for group in cluster.groups:
            self.add_group(group)

    def add_group(self, group: "ShardGroup") -> None:
        """Start monitoring a group: the constructor's, or one created
        later (scale-out).

        Idempotent per group name; the new monitor attaches immediately
        when the cluster monitor is already attached.
        """
        if group.name in self.monitors:
            return
        monitor = InvariantMonitor(
            group, grace=self._grace, failover_margin=self._failover_margin,
            on_violation=self._stamp(group))
        self.monitors[group.name] = monitor
        if self._attached:
            monitor.attach()

    def _stamp(self, group: "ShardGroup"
               ) -> Callable[[InvariantViolation], None]:
        def on_violation(violation: InvariantViolation) -> None:
            violation.details.setdefault("group", group.name)
            self.violations.append(violation)
        return on_violation

    # ------------------------------------------------------------------

    def attach(self) -> None:
        self._attached = True
        for monitor in self.monitors.values():
            monitor.attach()

    def detach(self) -> None:
        self._attached = False
        for monitor in self.monitors.values():
            monitor.detach()

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> List[InvariantViolation]:
        """Degraded-state findings of every group, merged in time order
        (gid order within an instant), each stamped with ``group=``."""
        merged = []
        for name, monitor in self.monitors.items():
            for finding in monitor.degraded:
                finding.details.setdefault("group", name)
                merged.append(finding)
        return sorted(merged, key=lambda finding: finding.time)

    def violation_counts(self) -> Dict[str, int]:
        """Cluster-wide histogram kind -> count."""
        return kind_counts(self.violations)

    def per_group_counts(self) -> Dict[str, Dict[str, int]]:
        """Histogram kind -> count for every group (groups in gid order)."""
        return {name: monitor.violation_counts()
                for name, monitor in self.monitors.items()}
