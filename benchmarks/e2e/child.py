"""One measured run of one workload, in a process of its own.

``run.py`` starts this file once per repeat, one at a time, so every run
pays interpreter start, ``import repro`` and build from cold — which is
what ``setup_s`` measures — and no run inherits another's heap.  The four
phases (build, simulate, collect, digest) are timed separately; the cyclic
collector is run before and paused inside each timed phase, as
``repro.bench.runner`` does, so a phase measures the code under test and
not collector pauses fired at arbitrary allocation counts.

With ``--traced 1`` the span wrappers of ``tracing.py`` are installed
after the imports and before the build; such a run yields per-layer
numbers only.

Prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import time
from typing import Any, Callable, Dict


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chrome-trace", default="")
    args = parser.parse_args()

    import_started = time.perf_counter()
    import workloads  # imports every repro module the run needs

    phases: Dict[str, float] = {
        "import_s": time.perf_counter() - import_started}
    recorder = None
    if args.traced:
        import tracing

        recorder = tracing.install()

    def timed(name: str, step: Callable[[], None]) -> None:
        if recorder is not None:
            step = recorder.span(f"phase.{name}", tracing.BENCH_LAYER, step)
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            step()
            phases[f"{name}_s"] = time.perf_counter() - started
        finally:
            gc.enable()

    workload = workloads.make(args.workload, args.seed, bool(args.quick))
    timed("build", workload.build)
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract the
    # instant it spawned this process.
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    timed("simulate", workload.simulate)
    timed("collect", workload.collect)
    timed("digest", workload.digest)

    # Read the ledger before the summary's own trace queries add to it.
    traced_numbers = _traced_numbers(recorder) if recorder is not None else None
    result: Dict[str, Any] = workload.summary()
    result["phases"] = phases
    result["ready_at"] = ready_at
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if recorder is not None:
        result["traced"] = traced_numbers
        if args.chrome_trace:
            recorder.write_chrome_trace(args.chrome_trace)
    print(json.dumps(result))


def _traced_numbers(recorder: Any) -> Dict[str, Any]:
    """Everything the per-layer ledger needs from the traced run."""
    simulators = recorder.instances["Simulator"]
    fabrics = recorder.instances["NetworkFabric"]
    processors = recorder.instances["Processor"]
    categories: Dict[str, int] = {}
    for simulator in simulators:
        for category, count in simulator.trace.categories().items():
            categories[category] = categories.get(category, 0) + count
    return {
        "spans": {name: {"layer": recorder.layers[name], "count": int(stat[0]),
                         "total_s": stat[1], "self_s": stat[2]}
                  for name, stat in sorted(recorder.stats.items())},
        "layer_self_s": recorder.layer_self_seconds(),
        "events_run": recorder.events_run,
        "bytes_sent": recorder.bytes_sent,
        "raw_spans": len(recorder.raw),
        "categories": categories,
        "peak_pending": max(
            (simulator.peak_pending_events for simulator in simulators),
            default=0),
        "trace_records": sum(len(simulator.trace)
                             for simulator in simulators),
        "datagrams_sent": sum(f.messages_sent for f in fabrics),
        "datagrams_delivered": sum(f.messages_delivered for f in fabrics),
        "datagrams_dropped": sum(f.messages_dropped for f in fabrics),
        "jobs_completed": sum(p.jobs_completed for p in processors),
        "deadline_misses": sum(p.deadline_misses for p in processors),
    }


if __name__ == "__main__":
    main()
