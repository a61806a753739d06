"""The experiment catalogue: every committed table, defined once.

``CATALOGUE`` maps a table's stem — the file is
``benchmarks/results/<stem>.txt`` — to the function that produces it and
the two sizes it runs at: ``paper`` (what the committed table and
EXPERIMENTS.md use) and ``quick`` (a seconds-sized pass for CI smokes and
``bench --quick``).  Nothing else sizes a figure.  The catalogue has three
readers:

- ``python -m repro figures NAME|all [--quick] [--output DIR]`` prints or
  writes the tables;
- :mod:`repro.bench.registry` registers one bench per entry, so a BENCH
  document reports the wall time to regenerate each table;
- CI regenerates ``benchmarks/results/`` from it and fails on ``git diff``.

Adding a table is one line here plus its producer (and its ``.txt``,
which ``figures NAME --output benchmarks/results`` writes).  Producers
take the entry's keyword arguments plus ``horizon``, ``seed`` and
``jobs``; the output is byte-identical for any ``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Union

from repro.experiments import figures, studies
from repro.metrics.report import Series, Table
from repro.units import ms

Rendered = Union[Series, Table]


@dataclass(frozen=True)
class Entry:
    """One table: its producer and the keyword arguments of its two sizes."""

    producer: Callable[..., Rendered]
    paper: Mapping[str, Any]
    quick: Mapping[str, Any]

    def kwargs(self, quick: bool = False) -> Dict[str, Any]:
        return dict(self.quick if quick else self.paper)

    def run(self, quick: bool = False, **overrides: Any) -> Rendered:
        """Produce the table; ``overrides`` (``jobs``, ``seed``, an explicit
        ``horizon``) win over the size preset."""
        return self.producer(**{**self.kwargs(quick), **overrides})


_OBJECTS = (8, 24, 40, 56)
# Figures 6/7 share a paper size; 9/10 and 11/12 are each one sweep with one
# switch (admission, scheduling mode) flipped, so they share both sizes.
_RESPONSE = dict(object_counts=_OBJECTS,
                 windows=(ms(100.0), ms(200.0), ms(400.0)), horizon=8.0)
_DISTANCE = dict(object_counts=_OBJECTS, windows=(ms(100.0), ms(200.0)),
                 loss_probability=0.02, horizon=10.0)
_DISTANCE_QUICK = dict(object_counts=(8, 56), windows=(ms(100.0),),
                       loss_probability=0.02, horizon=5.0)
_INCONSISTENCY = dict(loss_probabilities=(0.0, 0.05, 0.10),
                      windows=(ms(50.0), ms(100.0), ms(200.0)),
                      n_objects=24, horizon=15.0)
_INCONSISTENCY_QUICK = dict(loss_probabilities=(0.0, 0.10),
                            windows=(ms(50.0), ms(200.0)), n_objects=8,
                            horizon=6.0)

CATALOGUE: Dict[str, Entry] = {
    # --- The paper's evaluation, Figures 6-12 -----------------------------
    "fig06_response_time_ac": Entry(
        figures.figure6_response_time_with_admission,
        paper=_RESPONSE,
        quick=dict(object_counts=(8, 32), windows=(ms(100.0), ms(400.0)),
                   horizon=4.0)),
    "fig07_response_time_noac": Entry(
        figures.figure7_response_time_without_admission,
        paper=_RESPONSE,
        quick=dict(object_counts=(8, 56), windows=(ms(100.0), ms(400.0)),
                   horizon=4.0)),
    "fig08_distance_vs_loss": Entry(
        figures.figure8_distance_vs_loss,
        paper=dict(loss_probabilities=(0.0, 0.02, 0.06, 0.10),
                   write_periods=(ms(50.0), ms(100.0), ms(200.0)),
                   n_objects=8, horizon=15.0),
        quick=dict(loss_probabilities=(0.0, 0.10),
                   write_periods=(ms(50.0), ms(200.0)), n_objects=8,
                   horizon=6.0)),
    "fig09_distance_ac": Entry(
        figures.figure9_distance_with_admission,
        paper=_DISTANCE, quick=_DISTANCE_QUICK),
    "fig10_distance_noac": Entry(
        figures.figure10_distance_without_admission,
        paper=_DISTANCE, quick=_DISTANCE_QUICK),
    "fig11_inconsistency_normal": Entry(
        figures.figure11_inconsistency_normal,
        paper=_INCONSISTENCY, quick=_INCONSISTENCY_QUICK),
    "fig12_inconsistency_compressed": Entry(
        figures.figure12_inconsistency_compressed,
        paper=_INCONSISTENCY, quick=_INCONSISTENCY_QUICK),
    # --- Extension figures: their function defaults are the paper size ----
    "fig06fp_fastpath_overlay_ac": Entry(
        figures.figure6_fastpath_overlay,
        paper={}, quick=dict(object_counts=(8, 24), horizon=4.0)),
    "fig07fp_fastpath_overlay_noac": Entry(
        figures.figure7_fastpath_overlay,
        paper={}, quick=dict(object_counts=(8, 24), horizon=4.0)),
    "fig13_read_throughput_vs_replicas": Entry(
        figures.figure13_read_throughput_vs_replicas,
        paper={}, quick=dict(replica_counts=(0, 2),
                             read_periods=(ms(4.0), ms(8.0)), horizon=6.0)),
    "fig14_read_staleness_vs_window": Entry(
        figures.figure14_read_staleness_vs_window,
        paper={}, quick=dict(windows=(ms(100.0), ms(400.0)),
                             read_period=ms(4.0), horizon=6.0)),
    "fig15_flash_crowd_scaleout": Entry(
        figures.figure15_flash_crowd_scaleout,
        paper={}, quick=dict(burst_factors=(1.0, 8.0), horizon=10.0)),
    # --- Recovery (Section 4.4) -------------------------------------------
    "failover_latency": Entry(
        studies.failover_latency_sweep,
        paper=dict(ping_periods=(ms(25.0), ms(50.0), ms(100.0), ms(200.0)),
                   horizon=12.0),
        quick=dict(ping_periods=(ms(50.0), ms(100.0)), horizon=12.0)),
    # --- Ablations A-E ----------------------------------------------------
    "ablation_ack_strategy": Entry(
        studies.ablation_ack_strategy,
        paper=dict(loss_points=(0.0, 0.05, 0.10), horizon=12.0),
        quick=dict(loss_points=(0.0, 0.10), horizon=6.0)),
    "ablation_update_slack": Entry(
        studies.ablation_update_slack,
        paper=dict(slacks=(1.0, 1.5, 2.0, 3.0), horizon=15.0),
        quick=dict(slacks=(1.0, 3.0), horizon=8.0)),
    "ablation_baselines": Entry(
        studies.ablation_baselines,
        paper=dict(write_periods=(ms(20.0), ms(100.0)), horizon=10.0),
        quick=dict(write_periods=(ms(20.0), ms(100.0)), horizon=3.0)),
    "ablation_burst_loss": Entry(
        studies.ablation_burst_loss,
        paper=dict(horizon=20.0), quick=dict(horizon=10.0)),
    "ablation_cpu_scheduler": Entry(
        studies.ablation_cpu_scheduler,
        paper=dict(object_counts=(16, 40), overload_objects=60,
                   horizon=10.0),
        quick=dict(object_counts=(16,), overload_objects=54, horizon=3.0)),
    # --- Extension studies ------------------------------------------------
    "extension_multibackup": Entry(
        studies.extension_multibackup,
        paper=dict(backup_counts=(1, 2, 3, 4), horizon=10.0),
        quick=dict(backup_counts=(1, 4), horizon=5.0)),
    "extension_dcs_transmission": Entry(
        studies.extension_dcs_transmission,
        paper=dict(loss_points=(0.0, 0.05), horizon=12.0),
        quick=dict(loss_points=(0.0,), horizon=6.0)),
    "extension_deferrable_server": Entry(
        studies.extension_deferrable_server,
        paper=dict(horizon=10.0), quick=dict(horizon=3.0)),
    # --- Theory -----------------------------------------------------------
    "theory_theorem5_boundary": Entry(
        studies.theory_theorem5_boundary,
        paper=dict(slacks=(2.0, 1.3, 1.0), beyond=(1.3, 1.8), horizon=15.0),
        quick=dict(slacks=(2.0, 1.0), beyond=(1.8,), horizon=8.0)),
    "theory_phase_variance": Entry(
        studies.theory_phase_variance,
        paper=dict(n_tasksets=12, horizon=5.0),
        quick=dict(n_tasksets=3, horizon=2.0)),
}
