"""The repo benchmark: five RTPB workloads, end to end and layer by layer.

Two ways to run it, from the repository root:

- ``python3 benchmarks/e2e/run.py`` runs every workload: untraced repeats
  for the end-to-end metrics, then one traced run for the per-layer ledger,
  printing every metric as ``workload metric value unit`` and (with
  ``--output FILE``) writing a document ``compare.py`` can diff.
- ``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` is the single run ``BENCHMARK.json`` names: one workload,
  end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``),
  with one JSON object ``{"correct", "attempted", "failed", "metrics"}`` as
  the last line of standard output.

Host side this is a batch system: every repeat simulates the same fixed
amount of virtual time (the workload's horizon), so the numbers are work
completed per wall second at a stated input size.  ``--seconds`` sets how
long the untraced repeats go on: a new repeat starts while fewer than that
many seconds have passed, each in a fresh child process, one at a time (no
worker pool; figure sweeps run with ``jobs=1``).  Host metrics are the
lower quartile over the repeats (see ``measure``); simulated-time metrics,
counts and digests come from a virtual clock and must repeat exactly, which
is checked.

``--seed`` drives every workload's scenario seed and fault schedule.  The
default is 4; 7 is the held-out seed a perf claim must also hold on.

Exits non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

DEFAULT_SEED = 4

#: A child that has not finished by then is killed: the contract gives a
#: whole invocation 180 s.
CHILD_TIMEOUT_S = 150.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result (not a failed check)."""


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the registry of workload and metric names."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One child process = one run
# ----------------------------------------------------------------------


def run_child(workload: str, seed: int, quick: bool,
              traced: bool) -> Dict[str, Any]:
    """Run ``child.py`` to completion and return its result document."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--quick", str(int(quick)), "--traced", str(int(traced))]
    if traced:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        command += ["--chrome-trace", str(out / f"trace_{workload}.json")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    # subprocess.run kills the child and waits for it on timeout.
    finished = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    if finished.returncode != 0:
        raise BenchmarkError(
            f"{workload}: child exited with {finished.returncode}\n"
            f"{finished.stderr[-2000:]}")
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    phases = result["phases"]
    result["run_wall_s"] = (phases["simulate_s"] + phases["collect_s"]
                            + phases["digest_s"])
    return result


#: What a virtual clock decides: equal across repeats and across tracing.
DETERMINISTIC_KEYS = ("digest", "attempted", "completed", "failed",
                      "violations", "model")


def check_run(workload: str, child: Dict[str, Any]) -> List[str]:
    """Correctness checks on one finished run."""
    problems = []
    if child["violations"]:
        problems.append(
            f"{workload}: {child['violations']} invariant violation(s)")
    if child.get("admitted") != child.get("requested"):
        problems.append(
            f"{workload}: admitted {child.get('admitted')} of "
            f"{child.get('requested')} requested objects")
    return problems


def check_same(workload: str, what: str, first: Dict[str, Any],
               other: Dict[str, Any]) -> List[str]:
    return [f"{workload}: {key} differs {what}: "
            f"{first[key]!r} != {other[key]!r}"
            for key in DETERMINISTIC_KEYS if first[key] != other[key]]


# ----------------------------------------------------------------------
# End to end (untraced repeats)
# ----------------------------------------------------------------------


def lower_quartile(values: List[float]) -> float:
    """The nearest-rank 25th percentile: always one of the samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) / 4) - 1)]


def measure(workload: str, seed: int, seconds: float,
            quick: bool) -> Dict[str, Any]:
    """Untraced repeats for ``seconds`` seconds; host metrics and checks.

    The reported run is the *lower-quartile repeat*: the one whose
    ``run_wall_s`` is the nearest-rank 25th percentile.  On the shared
    2-vCPU box this was sized on, interference only ever makes a repeat
    slower (bursts of +30-60 % lasting seconds to a minute, steal ~0), so
    the lower quartile follows the code and the median follows the
    neighbours.  Median and IQR are printed beside it.  The same repeat's
    phase walls feed the per-layer ledger, so they add up to ``run_wall_s``.
    """
    children = []
    began = time.monotonic()
    while True:
        children.append(run_child(workload, seed, quick, traced=False))
        if quick or time.monotonic() - began >= seconds:
            break
    first = children[0]
    problems = check_run(workload, first)
    for other in children[1:]:
        problems += check_same(workload, "between repeats", first, other)
    samples = {
        "setup_s": [child["setup_s"] for child in children],
        "run_wall_s": [child["run_wall_s"] for child in children],
        "ops_per_wall_s": [child["completed"] / child["run_wall_s"]
                           for child in children],
        "peak_rss_mb": [child["peak_rss_mb"] for child in children],
    }
    run_wall = lower_quartile(samples["run_wall_s"])
    reported = children[samples["run_wall_s"].index(run_wall)]
    values = {
        "setup_s": lower_quartile(samples["setup_s"]),
        "run_wall_s": run_wall,
        "ops_per_wall_s": reported["completed"] / run_wall,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    return {
        "end_to_end": {name: {"value": values[name], "samples": samples[name]}
                       for name in values},
        "attempted": first["attempted"],
        "failed": first["failed"],
        "digest": first["digest"],
        "problems": problems,
        "reported_child": reported,
    }


# ----------------------------------------------------------------------
# Per layer (one traced run beside one untraced run)
# ----------------------------------------------------------------------


def trace(workload: str, seed: int, quick: bool,
          untraced: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The per-layer ledger: phase walls from an untraced run, counts and
    self times from a traced one, and the check that tracing changed
    nothing the model can see."""
    if untraced is None:
        untraced = run_child(workload, seed, quick, traced=False)
    traced = run_child(workload, seed, quick, traced=True)
    problems = check_run(workload, untraced)
    problems += check_same(workload, "between untraced and traced run",
                           untraced, traced)
    return {
        "per_layer": per_layer_metrics(untraced, traced),
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "problems": problems,
        "traced_phases": traced["phases"],
        "layer_self_s": traced["traced"]["layer_self_s"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(untraced: Dict[str, Any],
                      traced: Dict[str, Any]) -> Dict[str, float]:
    phases = untraced["phases"]
    numbers = traced["traced"]
    spans = numbers["spans"]
    categories = numbers["categories"]
    layer_self = numbers["layer_self_s"]

    def calls(*names: str) -> int:
        return sum(spans[name]["count"] for name in names if name in spans)

    def self_s(*names: str) -> float:
        return sum(spans[name]["self_s"] for name in names if name in spans)

    def records(*names: str) -> int:
        return sum(categories.get(name, 0) for name in names)

    events = numbers["events_run"]
    datagrams = numbers["datagrams_sent"]
    writes = calls("core.ReplicaServer.client_write")
    points = calls("experiments.run_scenario")
    traced_wall = sum(traced["phases"][f"{phase}_s"] for phase in
                      ("build", "simulate", "collect", "digest"))
    metrics = {
        "phase.import_s": phases["import_s"],
        "phase.build_s": phases["build_s"],
        "phase.simulate_s": phases["simulate_s"],
        "phase.collect_s": phases["collect_s"],
        "phase.digest_s": phases["digest_s"],
        "sim.events": events,
        "sim.events_per_s": _ratio(events, phases["simulate_s"]),
        "sim.peak_pending": numbers["peak_pending"],
        "sim.schedule_calls": calls("sim.Simulator.schedule",
                                    "sim.Simulator.schedule_at",
                                    "sim.Simulator.reschedule_at"),
        "sim.trace_records": numbers["trace_records"],
        "sim.trace_record_calls": calls("sim.Tracer.record"),
        "sched.submits": calls("sched.Processor.submit"),
        "sched.jobs_completed": numbers["jobs_completed"],
        "sched.deadline_misses": numbers["deadline_misses"],
        "sched.events": calls("sched.events"),
        "xkernel.messages_built": calls("xkernel.Message.__init__"),
        "xkernel.headers_built": calls("xkernel.Header.__init__"),
        "xkernel.header_ops": calls("xkernel.Header.push_onto",
                                    "xkernel.Header.pop_from"),
        "xkernel.messages_per_datagram": _ratio(
            calls("xkernel.Message.__init__"), datagrams),
        "net.datagrams_sent": datagrams,
        "net.datagrams_delivered": numbers["datagrams_delivered"],
        "net.datagrams_dropped": numbers["datagrams_dropped"],
        "net.bytes_sent": numbers["bytes_sent"],
        # Every dispatched event, whoever owns it, per datagram sent: the
        # figure a shorter message path lowers.
        "net.events_per_datagram": _ratio(events, datagrams),
        "core.client_writes": writes,
        "core.encode_calls": calls("core.encode_message"),
        "core.decode_calls": calls("core.decode_message"),
        "core.codec_self_s": self_s("core.encode_message",
                                    "core.decode_message"),
        "core.updates_sent": records("update_sent"),
        "core.updates_applied": records("backup_apply",
                                        "backup_apply_stale"),
        "core.delivery_rate": _ratio(
            records("backup_apply", "backup_apply_stale"),
            records("update_sent")),
        "core.retx_requests": records("retx_request"),
        "core.datagrams_per_write": _ratio(datagrams, writes),
        "cluster.placements": records("cluster_place"),
        "cluster.rejections": records("cluster_reject"),
        "cluster.events": calls("cluster.events"),
        "replicas.route_calls": calls("replicas.ReadRouter.route"),
        "replicas.reads_served": records("read_served"),
        "replicas.reads_refused": records("read_refused_stale",
                                          "read_rejected"),
        "replicas.fallback_rate": _ratio(
            records("read_fallback"),
            records("read_fallback", "read_served")),
        "elastic.migrations_committed": records("migration_commit"),
        "elastic.migrations_aborted": records("migration_abort"),
        "elastic.autoscale_actions": records("autoscale"),
        "elastic.events": calls("elastic.events"),
        "faults.injected": records("fault_injected"),
        "faults.listener_calls": calls(
            *(name for name in spans if name.endswith(".listener"))),
        "faults.violations": records("invariant_violation"),
        "faults.monitor_self_s": self_s("faults.listener"),
        "metrics.select_calls": calls("metrics.Tracer.select"),
        "metrics.collect_s_per_krecord": _ratio(
            phases["collect_s"], numbers["trace_records"] / 1000.0),
        "experiments.points": points,
        "experiments.wall_per_point_s": _ratio(phases["simulate_s"], points),
        "trace.overhead_ratio": _ratio(traced["phases"]["simulate_s"],
                                       phases["simulate_s"]),
        "trace.unattributed_frac": _ratio(layer_self["bench"], traced_wall),
    }
    for layer in ("sim", "sched", "xkernel", "net", "core", "cluster",
                  "replicas", "elastic", "metrics", "experiments"):
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics.update(untraced["model"])
    return metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def units_of(spec: Dict[str, Any]) -> Dict[str, str]:
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def print_end_to_end(workload: str, measured: Dict[str, Any],
                     units: Dict[str, str]) -> None:
    for name, entry in measured["end_to_end"].items():
        samples = entry["samples"]
        spread = ""
        if len(samples) > 1:
            quartiles = statistics.quantiles(samples, n=4)
            spread = (f"  ({len(samples)} repeats: median "
                      f"{statistics.median(samples):.4g}, "
                      f"iqr {quartiles[2] - quartiles[0]:.4g})")
        print(f"{workload} {name} {entry['value']:.6g} {units[name]}{spread}")
    print(f"{workload} ops_attempted {measured['attempted']} count")
    print(f"{workload} ops_failed {measured['failed']} count")
    print(f"{workload} digest {measured['digest']}")


def print_per_layer(workload: str, per_layer: Dict[str, float],
                    units: Dict[str, str]) -> None:
    for name, value in per_layer.items():
        print(f"{workload} {name} {value:.6g} {units[name]}")


def contract_metrics(values: Dict[str, float], names: List[Dict[str, Any]]
                     ) -> Dict[str, Dict[str, Any]]:
    """Exactly the metrics ``BENCHMARK.json`` lists; 0 where a per-layer
    metric does not apply to the workload (no replicas, no faults...)."""
    return {metric["name"]: {"value": values.get(metric["name"], 0),
                             "unit": metric["unit"]}
            for metric in names}


def run_single(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """The run ``BENCHMARK.json``'s command line asks for."""
    units = units_of(spec)
    if args.trace:
        traced = trace(args.workload, args.seed, args.quick)
        print_per_layer(args.workload, traced["per_layer"], units)
        result, metrics = traced, contract_metrics(traced["per_layer"],
                                                   spec["per_layer"])
    else:
        measured = measure(args.workload, args.seed, args.seconds, args.quick)
        print_end_to_end(args.workload, measured, units)
        result, metrics = measured, contract_metrics(
            {name: entry["value"]
             for name, entry in measured["end_to_end"].items()},
            spec["end_to_end"])
    for problem in result["problems"]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 1 if result["problems"] else 0


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload, end to end then traced; the full report."""
    units = units_of(spec)
    document: Dict[str, Any] = {"seed": args.seed, "quick": args.quick,
                                "workloads": {}}
    problems: List[str] = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        measured = measure(workload, args.seed, args.seconds, args.quick)
        print_end_to_end(workload, measured, units)
        traced = trace(workload, args.seed, args.quick,
                       untraced=measured.pop("reported_child"))
        print_per_layer(workload, traced["per_layer"], units)
        problems += measured.pop("problems") + traced.pop("problems")
        document["workloads"][workload] = {**measured, **traced}
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    document["correct"] = not problems
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    print("correct" if not problems else f"{len(problems)} check(s) failed")
    return 1 if problems else 0


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=[
        entry["name"] for entry in spec["workloads"]],
        help="run this one workload and end with the contract's JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="keep starting untraced repeats this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="sub-second sizes, one repeat (test-suite)")
    parser.add_argument("--output", help="write the full report as JSON")
    args = parser.parse_args()
    try:
        if args.workload:
            return run_single(args, spec)
        return run_all(args, spec)
    except (BenchmarkError, subprocess.TimeoutExpired) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
