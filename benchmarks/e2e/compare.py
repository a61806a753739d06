"""Compare two reports written by ``run.py --output``: ``compare.py A B``.

A is the parent, B the change.  One row per workload x end-to-end metric:

- host-side metrics (``setup_s``, ``run_wall_s``, ``ops_per_wall_s``,
  ``peak_rss_mb``) use the bound ``BENCHMARK.json`` fixes for them.  B is
  *regressed* when its value (the lower-quartile repeat) is worse than A's
  by more than the bound,
  *improved* when better by more than the bound, otherwise *unchanged* —
  except that a verdict is *unresolved* when the run-to-run spread (the
  interquartile range as a share of the median, either side) is wider than
  the bound and the two sets of runs overlap: then the runs cannot tell.
- model-side metrics (the ``model.*`` figures: client response time,
  primary-backup distance, backup inconsistency, failover time, read
  staleness, failed-operation share) come from a virtual clock, so for
  equal seeds they are exactly equal unless the model changed; any
  worsening is a regression.

Per-layer deltas are listed beneath each workload.  The exit code is 1 on
any regression, on more failed operations, or when either report is not
``correct``; otherwise 0.  A changed trace digest is reported (a
model-changing PR changes it on purpose) but is not by itself a failure.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def spread(samples: List[float]) -> float:
    """Interquartile range as a share of the median (0 below two runs)."""
    if len(samples) < 2:
        return 0.0
    quartiles = statistics.quantiles(samples, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(samples)


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is, as a share of ``parent`` (< 0: better)."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def overlap(first: List[float], second: List[float]) -> bool:
    return max(first) >= min(second) and max(second) >= min(first)


def verdict(parent: Dict[str, Any], change: Dict[str, Any], better: str,
            bound: float) -> Tuple[str, float]:
    """improved / unchanged / regressed / unresolved for one wall metric."""
    worse = worse_by(parent["value"], change["value"], better)
    a, b = parent["samples"], change["samples"]
    noisy = max(spread(a), spread(b)) > bound and overlap(a, b)
    if noisy:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def exact_verdict(parent: float, change: float, better: str
                  ) -> Tuple[str, float]:
    worse = worse_by(parent, change, better)
    if worse > 0:
        return "regressed", worse
    return ("improved" if worse < 0 else "unchanged"), worse


def compare(parent: Dict[str, Any], change: Dict[str, Any],
            spec: Dict[str, Any]) -> int:
    failures = 0
    if parent.get("seed") != change.get("seed"):
        print(f"seeds differ ({parent.get('seed')} vs {change.get('seed')}): "
              f"simulated-time rows are not comparable")
        failures += 1
    for side, report in (("A", parent), ("B", change)):
        if not report.get("correct"):
            print(f"report {side} failed its own correctness checks")
            failures += 1
    better_of = {metric["name"]: metric["better"]
                 for metric in spec["end_to_end"] + spec["per_layer"]}
    for workload in (entry["name"] for entry in spec["workloads"]):
        a = parent["workloads"].get(workload)
        b = change["workloads"].get(workload)
        if a is None or b is None:
            print(f"{workload}: missing from a report")
            failures += 1
            continue
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            first, second = a["end_to_end"][name], b["end_to_end"][name]
            word, worse = verdict(first, second, metric["better"],
                                  metric["bound"])
            failures += word == "regressed"
            print(f"  {name:<28} {word:<10} {first['value']:.6g} -> "
                  f"{second['value']:.6g}  ({worse:+.2%} worse, "
                  f"bound {metric['bound']:.0%})")
        for name in sorted(a["per_layer"]):
            if not name.startswith("model."):
                continue
            word, worse = exact_verdict(a["per_layer"][name],
                                        b["per_layer"].get(name, 0.0),
                                        better_of[name])
            failures += word == "regressed"
            print(f"  {name:<28} {word:<10} {a['per_layer'][name]:.6g} -> "
                  f"{b['per_layer'].get(name, 0.0):.6g}  (exact)")
        if b["failed"] > a["failed"]:
            print(f"  ops failed rose: {a['failed']} -> {b['failed']} "
                  f"of {b['attempted']}")
            failures += 1
        if a["digest"] != b["digest"]:
            print("  trace digest changed (the model's behaviour differs)")
        print("  per-layer deltas:")
        for name in sorted(a["per_layer"]):
            if name.startswith("model."):
                continue
            before = a["per_layer"][name]
            after = b["per_layer"].get(name, 0.0)
            if before == after:
                continue
            change_text = (f"{(after - before) / abs(before):+.1%}"
                           if before else "new")
            print(f"    {name:<30} {before:.6g} -> {after:.6g}  "
                  f"({change_text})")
    print("no regression" if not failures
          else f"{failures} regression(s) or failure(s)")
    return 1 if failures else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as handle:
        parent = json.load(handle)
    with open(sys.argv[2]) as handle:
        change = json.load(handle)
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return compare(parent, change, spec)


if __name__ == "__main__":
    sys.exit(main())
