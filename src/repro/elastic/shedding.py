"""Overload shedding: graceful temporal-window degradation and restore.

When the cluster is over capacity — placement rejects a group (the
manager sweep keeps parking it), or a host's planned utilization crosses
the red line — the paper's answer is to "negotiate for an alternative
quality of service": widen some objects' δ windows so their update tasks
need less bandwidth and the budgets fit again.

The :class:`OverloadShedder` automates that negotiation.  Each period it
checks for fresh :class:`~repro.cluster.placement.PlacementRejection`
feedback and for red-line utilization; under pressure it picks the group
whose primary sits on the most-loaded host and *degrades* its objects:
δ^B is widened to ``δ^P + shed_factor · δ`` — or to the rejection's own
QoS suggestion (``{"delta_backup": …}``) when that asks for more — and
the new spec is swapped in atomically across every budget layer (host
placement charges, then the primary's and backup's admission
controllers; any refusal rolls the object back untouched).  Each
degradation is traced as ``window_degraded``, and the invariant monitors
re-key the object's online window check from the record, so the *wider*
contract is what gets enforced.

After ``cooldown`` pressure-free seconds the shedder walks its ledger
backwards: every degraded object whose *original* spec re-admits
everywhere is restored (``window_restored``); objects that no longer fit
stay degraded and are retried at the next cool-down.  Objects that
migrated away while degraded are found at their new group and restored
there — the ledger follows the object, not the group.

Trace categories: ``window_degraded``, ``window_restored``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.spec import ObjectSpec
from repro.elastic.autoscaler import peak_utilization
from repro.errors import ReplicationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.placement import PlacementRejection
    from repro.cluster.service import ClusterService, ShardGroup
    from repro.workload.elastic import ElasticScenario


class OverloadShedder:
    """Widens δ windows under pressure; narrows them back on cool-down.

    The degradation knobs are the ``scenario``'s ``shed_*`` fields.
    """

    def __init__(self, cluster: "ClusterService",
                 scenario: "ElasticScenario") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.scenario = scenario
        #: Degraded-object ledger: object id → pre-degradation spec.
        self._originals: Dict[int, ObjectSpec] = {}
        self._seen_rejections = 0
        self._last_pressure_at: Optional[float] = None
        self.degradations = 0
        self.restorations = 0
        self._running = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.schedule(self.scenario.shed_period, self._tick)

    def stop(self) -> None:
        self._running = False

    def degraded_ids(self) -> List[int]:
        """Currently degraded object ids, ascending (diagnostics)."""
        return sorted(self._originals)

    # ------------------------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        fresh = self.cluster.rejections[self._seen_rejections:]
        self._seen_rejections = len(self.cluster.rejections)
        peak = peak_utilization(self.cluster)
        if fresh or peak > self.scenario.shed_red_line:
            self._last_pressure_at = self.sim.now
            self._shed(fresh)
        elif (self._originals and self._last_pressure_at is not None
                and self.sim.now - self._last_pressure_at
                >= self.scenario.shed_cooldown):
            self._restore()
        self.sim.schedule(self.scenario.shed_period, self._tick)

    # ------------------------------------------------------------------
    # Degradation
    # ------------------------------------------------------------------

    def _shed(self, rejections: List["PlacementRejection"]) -> None:
        suggested: Optional[float] = None
        for rejection in reversed(rejections):
            if rejection.suggestion is not None:
                value = rejection.suggestion.get("delta_backup")
                if value is not None:
                    suggested = value
                    break
        group = self._target_group()
        if group is None:
            return
        for spec in list(group.registered_specs()):
            if spec.object_id in self._originals:
                continue
            widened = spec.delta_primary + self.scenario.shed_factor * \
                spec.window
            if suggested is not None:
                widened = max(widened, suggested)
            new_spec = replace(spec, delta_backup=widened)
            if self._swap(group, spec, new_spec):
                self._originals[spec.object_id] = spec
                self.degradations += 1
                self.sim.trace.record(
                    "window_degraded", group=group.name,
                    object=spec.object_id, window=new_spec.window,
                    old_window=spec.window)

    def _target_group(self) -> Optional["ShardGroup"]:
        """The group whose live primary sits on the most-utilized host and
        still has un-degraded objects (ties break on lower address)."""
        ranked = sorted(
            ((slot.admission.planned_utilization(), address)
             for address, slot in self.cluster.slots.items()
             if slot.alive and not slot.draining),
            key=lambda pair: (-pair[0], pair[1]))
        for _utilization, address in ranked:
            for group in self.cluster.groups:
                if group.retired_for_good:
                    continue
                try:
                    primary = group.current_primary()
                except ReplicationError:
                    continue
                if primary.host.address != address:
                    continue
                if any(spec.object_id not in self._originals
                       for spec in group.registered_specs()):
                    return group
        return None

    # ------------------------------------------------------------------
    # Restoration
    # ------------------------------------------------------------------

    def _restore(self) -> None:
        for object_id in sorted(self._originals):
            original = self._originals[object_id]
            located = self._locate(object_id)
            if located is None:
                # The object left the cluster entirely (its group died and
                # was never re-placed); drop the ledger entry.
                del self._originals[object_id]
                continue
            group, current = located
            if self._swap(group, current, original):
                del self._originals[object_id]
                self.restorations += 1
                self.sim.trace.record(
                    "window_restored", group=group.name, object=object_id,
                    window=original.window, degraded_window=current.window)

    def _locate(self, object_id: int
                ) -> Optional[Tuple["ShardGroup", ObjectSpec]]:
        """The group currently owning a degraded object (it may have
        migrated since degradation) and its active spec."""
        for group in self.cluster.groups:
            if group.retired_for_good:
                continue
            for spec in group.registered_specs():
                if spec.object_id == object_id:
                    return group, spec
        return None

    # ------------------------------------------------------------------

    def _swap(self, group: "ShardGroup", old_spec: ObjectSpec,
              new_spec: ObjectSpec) -> bool:
        """Swap one object's spec across every budget layer, atomically.

        Order: host placement charges first (the cross-group budget),
        then the primary's admission, then the backup's.  Any refusal
        unwinds the earlier layers, so a failed swap changes nothing.
        """
        placement = self.cluster.placement
        rejection = placement.adjust_object(group.gid, old_spec, new_spec,
                                            now=self.sim.now)
        if rejection is not None:
            return False
        try:
            primary = group.current_primary()
        except ReplicationError:
            placement.adjust_object(group.gid, new_spec, old_spec,
                                    now=self.sim.now)
            return False
        decision = primary.adjust_window(new_spec)
        if not decision.accepted:
            placement.adjust_object(group.gid, new_spec, old_spec,
                                    now=self.sim.now)
            return False
        backup = group.current_backup()
        if backup is not None and new_spec.object_id in backup.store:
            backup_decision = backup.adjust_window(new_spec)
            if not backup_decision.accepted:
                primary.adjust_window(old_spec)
                placement.adjust_object(group.gid, new_spec, old_spec,
                                        now=self.sim.now)
                return False
        self._replace_spec(group, new_spec)
        return True

    @staticmethod
    def _replace_spec(group: "ShardGroup", new_spec: ObjectSpec
                      ) -> None:
        for specs in (group.specs, group._registered):
            for index, spec in enumerate(specs):
                if spec.object_id == new_spec.object_id:
                    specs[index] = new_spec
