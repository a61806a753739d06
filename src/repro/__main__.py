"""``python -m repro <verb>`` — the one command line of the reproduction.

Verbs::

    python -m repro figures fig8                  # print a committed table
    python -m repro figures all --jobs 4 --output benchmarks/results
    python -m repro figures ablation_baselines --quick  # (``list`` names all)
    python -m repro cluster --shards 16 --hosts 6 --crash 3.0:g00/primary
    python -m repro cluster --seeds 0 1 2 3 --jobs 4
    python -m repro replicas --quick --jobs 2 --require-identical
    python -m repro elastic --factors 1 4 8 --seeds 0 1
    python -m repro chaos --matrix --seed 7 --output chaos.json
    python -m repro bench --quick --output BENCH_quick.json
    python -m repro bench --compare BENCH_old.json BENCH_new.json

Every verb but ``figures`` (rendered tables of the experiment catalogue,
:mod:`repro.experiments.catalogue`; ``--output DIR`` writes
``DIR/<stem>.txt``) and ``bench --compare`` (a text report) emits one
deterministic JSON document — sorted keys, no NaN, virtual-time
everything — to stdout or ``--output``.  The options verbs
share mean the same thing everywhere:

- ``--jobs N`` (default ``$REPRO_JOBS`` or 1; 0 = one per CPU) spreads
  independent runs over worker processes; output is byte-identical for any
  value.
- ``--require-identical`` (``replicas``, ``elastic``) re-runs the sweep
  serially and fails unless every per-run trace digest matches.
- ``--quick`` shrinks a sweep to CI size (for ``figures``, the
  catalogue's quick preset instead of the paper size); an option given
  explicitly always wins over the quick preset.

Exit status: 0 on success, 1 when a determinism, regression or invariant
gate fails (``chaos``: a finding outside a scenario's expected set), 2 on
usage errors.  (``repro.lint`` keeps its own CLI: it shares none of
these options.)
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.compare import compare_documents
from repro.bench.registry import SCENARIOS as BENCHES
from repro.bench.runner import run_suite
from repro.cluster.monitor import ClusterInvariantMonitor
from repro.cluster.service import ClusterService
from repro.experiments.catalogue import CATALOGUE
from repro.experiments.harness import RunResult, run_scenario
from repro.faults.monitor import kind_counts
from repro.faults.report import report_dict, run_chaos, run_matrix
from repro.faults.scenarios import SCENARIOS as CHAOS_SCENARIOS
from repro.faults.schedule import FaultSchedule
from repro.metrics.jsonio import stable_dumps
from repro.parallel import derive_seed, resolve_jobs, run_specs
from repro.parallel.spec import RunOutcome, RunSpec
from repro.replicas.router import POLICIES
from repro.units import ms
from repro.workload.cluster import ClusterScenario
from repro.workload.elastic import ElasticScenario
from repro.workload.scenarios import Scenario

#: Injectable stopwatch — a *reference* to ``time.perf_counter``, so the
#: wall clock only ever times a figure, never reaches model code.
_STOPWATCH = time.perf_counter

Verb = Callable[[argparse.ArgumentParser, argparse.Namespace], int]

# ----------------------------------------------------------------------
# Shared option handling
# ----------------------------------------------------------------------

#: Options more than one verb takes, declared once.  ``horizon`` and
#: ``seeds`` default to ``None`` so :func:`_fill` can tell "not given".
_SHARED: Dict[str, Dict[str, Any]] = {
    "seed": dict(type=int, default=0, help="root random seed (default 0)"),
    "seeds": dict(type=int, nargs="+", metavar="SEED",
                  help="root seeds, one pass per seed (default 0 1)"),
    "horizon": dict(type=float,
                    help="virtual-time horizon per run, seconds"),
    "warmup": dict(type=float, default=2.0,
                   help="seconds excluded from metrics (default 2.0)"),
    "jobs": dict(type=int, default=None, metavar="N",
                 help="worker processes (0 = one per CPU; default: "
                      "$REPRO_JOBS or 1); output is byte-identical for "
                      "any value"),
    "require_identical": dict(
        action="store_true",
        help="re-run serially and fail unless every trace digest matches "
             "the parallel pass"),
    "output": dict(metavar="PATH",
                   help="write the JSON document here instead of stdout"),
}


def _shared(parser: argparse.ArgumentParser, *names: str,
            **help_overrides: str) -> None:
    """Add shared options, optionally with verb-specific help text."""
    for name in names:
        spec = dict(_SHARED[name])
        spec["help"] = help_overrides.get(name, spec["help"])
        parser.add_argument("--" + name.replace("_", "-"), **spec)


def _fill(args: argparse.Namespace, full: Dict[str, Any],
          quick: Dict[str, Any]) -> None:
    """Give every option the user left out its value: the ``--quick``
    preset where it names one, the default otherwise.  An explicitly given
    flag is never overridden."""
    for name, value in ({**full, **quick} if args.quick else full).items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _jobs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        return resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))


def _write_text(parser: argparse.ArgumentParser, path: str,
                text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        parser.error(f"cannot write --output {path}: {exc}")


def _write(parser: argparse.ArgumentParser, path: str,
           document: Any) -> None:
    _write_text(parser, path, stable_dumps(document))


def _emit(parser: argparse.ArgumentParser, document: Any,
          output: Optional[str]) -> None:
    """The stable-JSON document, to ``--output`` or stdout."""
    if output:
        _write(parser, output, document)
    else:
        print(stable_dumps(document))


def _emit_sweep(parser: argparse.ArgumentParser, args: argparse.Namespace,
                specs: List[RunSpec], header: Dict[str, Any],
                entry: Callable[[RunOutcome], Dict[str, Any]]) -> int:
    """Run ``specs`` and emit the sweep document (``replicas``/``elastic``).

    Under ``--require-identical`` the sweep runs again serially and every
    per-run trace digest must match — the determinism gate.
    """
    jobs = _jobs(parser, args)
    outcomes = run_specs(specs, jobs=jobs)
    document: Dict[str, Any] = {
        "jobs": jobs, **header,
        "runs": [entry(outcome) for outcome in outcomes]}
    status = 0
    if args.require_identical:
        mismatches = [
            f"{parallel.key}: serial digest {serial.trace_digest[:12]} != "
            f"parallel digest {parallel.trace_digest[:12]}"
            for serial, parallel in zip(run_specs(specs, jobs=1), outcomes)
            if serial.trace_digest != parallel.trace_digest]
        for mismatch in mismatches:
            print(f"MISMATCH {mismatch}", file=sys.stderr)
        document["identical"] = not mismatches
        status = 1 if mismatches else 0
    _emit(parser, document, args.output)
    return status


def _run_entry(outcome: RunOutcome, swept: Optional[str],
               **fields: Any) -> Dict[str, Any]:
    """One run of a sweep document: the fields every verb reports, the
    swept coordinate under its name (spec keys are ``(verb, [x,] seed)``),
    and the verb's own ``fields``."""
    assert outcome.key is not None
    entry = {
        "seed": outcome.key[-1],
        "digest": outcome.trace_digest,
        "events": outcome.events_executed,
        "trace_records": outcome.trace_records,
        **fields,
    }
    if swept is not None:
        entry[swept] = outcome.key[1]
    return entry


def _first_doc_line(obj: Any) -> str:
    lines = (obj.__doc__ or "").strip().splitlines()
    return lines[0] if lines else ""


def _comma_names(chunks: List[str]) -> List[str]:
    return [name for chunk in chunks for name in chunk.split(",") if name]


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------


def _short_name(stem: str) -> str:
    """``fig08_distance_vs_loss`` also answers to ``fig8``."""
    head = stem.split("_", 1)[0]
    return head.replace("fig0", "fig") if head.startswith("fig") else stem


#: What ``figures`` accepts: every catalogue stem, plus ``figN`` shorthands.
_TABLES: Dict[str, str] = {
    **{_short_name(stem): stem for stem in CATALOGUE},
    **{stem: stem for stem in CATALOGUE}}


def _figures_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("figure", choices=sorted(_TABLES) + ["all", "list"],
                        metavar="NAME",
                        help="a table of the experiment catalogue (`list` "
                             "names them; fig8 is short for "
                             "fig08_distance_vs_loss), or `all`")
    _shared(parser, "horizon", "seed", "jobs", "output",
            seed="root random seed (default: the committed table's)",
            output="write each table to DIR/<stem>.txt instead of stdout "
                   "(benchmarks/results regenerates the committed ones)")
    parser.set_defaults(seed=None)
    parser.add_argument("--quick", action="store_true",
                        help="the catalogue's quick size instead of the "
                             "paper size")


def _figures(parser: argparse.ArgumentParser,
             args: argparse.Namespace) -> int:
    jobs = _jobs(parser, args)
    if args.figure == "list":
        for stem, entry in CATALOGUE.items():
            print(f"{stem:34s} {_first_doc_line(entry.producer)}")
        return 0
    overrides = {name: value for name, value
                 in (("seed", args.seed), ("horizon", args.horizon))
                 if value is not None}
    stems = list(CATALOGUE) if args.figure == "all" else [
        _TABLES[args.figure]]
    for stem in stems:
        started = _STOPWATCH()
        table = CATALOGUE[stem].run(args.quick, jobs=jobs, **overrides)
        elapsed = _STOPWATCH() - started
        if args.output:
            path = os.path.join(args.output, f"{stem}.txt")
            _write_text(parser, path, table.render())
            print(f"{path} [{elapsed:.1f}s wall]")
        else:
            print(table.render())
            print(f"[{stem}: {elapsed:.1f}s wall]")
            print()
    return 0


# ----------------------------------------------------------------------
# cluster
# ----------------------------------------------------------------------


def _cluster_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=16,
                        help="replication groups (default 16)")
    parser.add_argument("--hosts", type=int, default=6,
                        help="host pool size (default 6)")
    parser.add_argument("--objects", type=int, default=32,
                        help="objects across all shards (default 32)")
    parser.add_argument("--backups", type=int, default=1,
                        help="backups per group (default 1; more than one "
                             "runs the multi_backup discipline)")
    parser.add_argument("--loss", type=float, default=0.0,
                        help="message loss probability (default 0)")
    parser.add_argument("--crash", action="append", default=[],
                        metavar="TIME:TARGET",
                        help="crash a server, e.g. 3.0:g00/primary "
                             "(repeatable)")
    parser.add_argument("--kill-host", action="append", default=[],
                        metavar="TIME:ADDRESS",
                        help="kill a whole host, e.g. 6.0:3 (repeatable)")
    parser.add_argument("--isolate", action="append", default=[],
                        metavar="TIME:DUR:TARGET",
                        help="partition a server's host off the fabric for "
                             "DUR seconds, e.g. 6.0:5.0:g01/backup "
                             "(repeatable)")
    parser.add_argument("--monitor", action="store_true",
                        help="attach the per-group invariant monitor")
    _shared(parser, "horizon", "seed", "seeds", "jobs", "warmup", "output",
            horizon="virtual-time horizon, seconds (default 20)",
            seed="seed for a single run (default 0)",
            seeds="sweep mode: one run per seed")
    parser.set_defaults(horizon=20.0)


def _cluster_schedule(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> Optional[FaultSchedule]:
    def target(text: str) -> "int | str":
        return int(text) if text.isdigit() else text

    schedule = FaultSchedule()
    try:
        for item in args.crash:
            at, server = item.split(":", 1)
            schedule.crash(float(at), target(server))
        for item in args.kill_host:
            at, address = item.split(":", 1)
            schedule.kill_host(float(at), int(address))
        for item in args.isolate:
            at, duration, server = item.split(":", 2)
            schedule.isolate(float(at), float(duration), target(server))
    except ValueError as exc:
        parser.error(f"bad fault spec: {exc}")
    return schedule if len(schedule) else None


def _cluster_run_document(result: RunResult) -> Dict[str, Any]:
    cluster = result.service
    assert isinstance(cluster, ClusterService)
    fingerprint = result.fingerprint
    document: Dict[str, Any] = {
        "scenario": result.scenario,
        "digest": fingerprint.digest,
        "events": fingerprint.events_executed,
        "trace_records": fingerprint.trace_records,
        "cluster": result.metrics,
        "per_group": result.per_group,
        "placements": {group.name: group.placements
                       for group in cluster.groups},
        "parked_groups": sorted(group.name for group in cluster.groups
                                if group.parked),
        "utilization": cluster.placement.utilization(),
        "rejections": [rejection.to_dict()
                       for rejection in cluster.rejections],
    }
    if result.injector is not None:
        document["faults"] = list(result.injector.applied)
    if isinstance(result.monitor, ClusterInvariantMonitor):
        document["violations"] = kind_counts(result.violations)
        document["violations_per_group"] = {
            name: counts for name, counts
            in result.monitor.per_group_counts().items() if counts}
    return document


def _cluster(parser: argparse.ArgumentParser,
             args: argparse.Namespace) -> int:
    schedule = _cluster_schedule(parser, args)

    def scenario(seed: int) -> ClusterScenario:
        # Several backups per group need the succession-aware discipline.
        return ClusterScenario(
            n_shards=args.shards, n_hosts=args.hosts,
            n_objects=args.objects, backups_per_group=args.backups,
            replication="multi_backup" if args.backups > 1 else "rtpb",
            horizon=args.horizon, loss_probability=args.loss, seed=seed)

    document: Dict[str, Any]
    if args.seeds:
        jobs = _jobs(parser, args)
        outcomes = run_specs(
            [RunSpec(scenario=scenario(seed), warmup=args.warmup,
                     monitor=args.monitor, fault_schedule=schedule,
                     key=("cluster", seed)) for seed in args.seeds],
            jobs=jobs)
        document = {"jobs": jobs, "runs": [
            _run_entry(outcome, None, admitted=outcome.admitted,
                       network=outcome.network,
                       violation_counts=outcome.violation_counts)
            for outcome in outcomes]}
    else:
        document = _cluster_run_document(run_scenario(
            scenario(args.seed), warmup=args.warmup,
            fault_schedule=schedule, monitor=args.monitor))
    _emit(parser, document, args.output)
    return 0


# ----------------------------------------------------------------------
# replicas
# ----------------------------------------------------------------------


def _replicas_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--replica-counts", type=int, nargs="+", metavar="N",
                        help="replica counts to sweep (default 0 1 2 3; "
                             "0 = every read falls back to the primary)")
    parser.add_argument("--objects", type=int, default=8,
                        help="objects in the service (default 8)")
    parser.add_argument("--window", type=float, default=ms(200.0),
                        help="temporal window, seconds (default 0.2)")
    parser.add_argument("--read-period", type=float, default=ms(2.0),
                        help="per-object read period, seconds "
                             "(default 0.002)")
    parser.add_argument("--policy", choices=POLICIES, default="round_robin",
                        help="read-routing policy (default round_robin)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized sweep: counts 0 1 2, one seed, "
                             "6 s horizon")
    _shared(parser, "seeds", "horizon", "warmup", "jobs",
            "require_identical", "output",
            horizon="virtual-time horizon, seconds (default 12)")


def _replicas(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> int:
    _fill(args,
          full=dict(replica_counts=[0, 1, 2, 3], seeds=[0, 1], horizon=12.0),
          quick=dict(replica_counts=[0, 1, 2], seeds=[0], horizon=6.0))
    specs = [
        RunSpec(scenario=Scenario(
                    n_objects=args.objects, window=args.window,
                    horizon=args.horizon, n_replicas=count,
                    read_period=args.read_period, read_policy=args.policy,
                    seed=derive_seed(seed, "replicas", count)),
                warmup=args.warmup, key=("replicas", count, seed))
        for count in args.replica_counts for seed in args.seeds]

    def entry(outcome: RunOutcome) -> Dict[str, Any]:
        metrics = outcome.metrics
        return _run_entry(
            outcome, "replicas",
            read_throughput=metrics.read_throughput,
            p50_read_staleness=metrics.read_staleness.p50,
            p99_read_staleness=metrics.read_staleness.p99,
            slo_violations=metrics.slo_violations,
            fallback_rate=metrics.fallback_rate)

    return _emit_sweep(parser, args, specs,
                       {"policy": args.policy,
                        "read_period": args.read_period}, entry)


# ----------------------------------------------------------------------
# elastic
# ----------------------------------------------------------------------


def _elastic_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--factors", type=float, nargs="+", metavar="X",
                        help="flash-crowd write-rate multipliers to sweep "
                             "(default 1 4 8; 1 = calm control run)")
    parser.add_argument("--shards", type=int, default=2,
                        help="initial shard count (default 2)")
    parser.add_argument("--hosts", type=int, default=4,
                        help="initial host count (default 4)")
    parser.add_argument("--objects", type=int, default=12,
                        help="objects in the cluster (default 12)")
    parser.add_argument("--window", type=float, default=ms(200.0),
                        help="temporal window, seconds (default 0.2)")
    parser.add_argument("--burst-at", type=float, default=3.0,
                        help="flash-crowd start, seconds (default 3.0)")
    parser.add_argument("--burst-duration", type=float, default=2.0,
                        help="flash-crowd length, seconds (default 2.0)")
    parser.add_argument("--latency-red", type=float, default=0.003,
                        help="autoscaler p99 response-time red line, "
                             "seconds (default 0.003)")
    parser.add_argument("--max-groups", type=int, default=3,
                        help="scale-out group ceiling (default 3)")
    parser.add_argument("--max-hosts", type=int, default=6,
                        help="scale-out host ceiling (default 6)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized sweep: factors 1 8, one seed, "
                             "10 s horizon")
    _shared(parser, "seeds", "horizon", "warmup", "jobs",
            "require_identical", "output",
            horizon="virtual-time horizon, seconds (default 20)")


def _elastic(parser: argparse.ArgumentParser,
             args: argparse.Namespace) -> int:
    _fill(args,
          full=dict(factors=[1.0, 4.0, 8.0], seeds=[0, 1], horizon=20.0),
          quick=dict(factors=[1.0, 8.0], seeds=[0], horizon=10.0))
    specs = []
    for factor in args.factors:
        for seed in args.seeds:
            # Factor 1 is the calm control: no burst, so any autoscale
            # action there is utilization-driven only.
            schedule = (FaultSchedule().flash_crowd(
                args.burst_at, args.burst_duration, factor)
                if factor > 1.0 else None)
            scenario = ElasticScenario(
                n_shards=args.shards, n_hosts=args.hosts,
                n_objects=args.objects, window=args.window,
                horizon=args.horizon,
                latency_red=args.latency_red, low_watermark=0.0,
                max_groups=args.max_groups, max_hosts=args.max_hosts,
                seed=derive_seed(seed, "elastic", factor))
            specs.append(RunSpec(scenario=scenario, warmup=args.warmup,
                                 monitor=True, fault_schedule=schedule,
                                 key=("elastic", factor, seed)))

    def entry(outcome: RunOutcome) -> Dict[str, Any]:
        return _run_entry(
            outcome, "factor",
            mean_response=outcome.metrics.response.mean,
            p99_response=outcome.metrics.response.p99,
            violations=outcome.violation_counts, **outcome.extra)

    return _emit_sweep(parser, args, specs,
                       {"burst_at": args.burst_at,
                        "burst_duration": args.burst_duration}, entry)


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------


def _chaos_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--list", action="store_true",
                        help="list catalogue scenarios and exit")
    parser.add_argument("--scenario", metavar="NAME",
                        help="run one catalogue scenario")
    parser.add_argument("--matrix", action="store_true",
                        help="run every catalogue scenario")
    _shared(parser, "jobs", "seed", "warmup", "output")


def _chaos(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.list:
        for name in sorted(CHAOS_SCENARIOS):
            print(f"{name:28s} {CHAOS_SCENARIOS[name](0).description}")
        return 0
    jobs = _jobs(parser, args)
    if args.matrix:
        document = run_matrix(seed=args.seed, jobs=jobs)
    elif args.scenario:
        try:
            run = run_chaos(args.scenario, seed=args.seed,
                            warmup=args.warmup)
        except KeyError as exc:
            parser.error(str(exc.args[0]) if exc.args else str(exc))
        document = report_dict(run)
    else:
        parser.error("choose one of --list, --scenario NAME, or --matrix")
    _emit(parser, document, args.output)
    # The gate: a finding outside a scenario's declared expected set.
    reports = document if args.matrix else {args.scenario: document}
    unexpected = [(name, finding) for name, report in reports.items()
                  for finding in report["invariants"]["unexpected"]]
    for name, finding in unexpected:
        print(f"UNEXPECTED {name}: {finding['kind']} at "
              f"t={finding['time']}", file=sys.stderr)
    return 1 if unexpected else 0


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------


def _bench_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--list", action="store_true",
                        help="list bench scenarios and exit")
    parser.add_argument("--quick", action="store_true",
                        help="shrink every scenario to a CI smoke size")
    parser.add_argument("--only", metavar="NAME[,NAME...]", action="append",
                        default=[],
                        help="run only these scenarios (repeatable)")
    parser.add_argument("--rev", metavar="LABEL", default=None,
                        help="revision label for the document "
                             "(default: git short rev)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run every scenario N times and record the "
                             "minimum wall time (host-noise defence for "
                             "committed baselines); deterministic fields "
                             "must agree across repeats")
    parser.add_argument("--profile", action="store_true",
                        help="run each scenario under cProfile and write "
                             "the top-25 cumulative hotspots to "
                             "<output>.profile.json (requires --jobs 1; "
                             "wall times become profiler-inflated)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="diff two BENCH documents instead of running")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="fractional throughput drop that counts as a "
                             "regression (default 0.2)")
    parser.add_argument("--benches", metavar="NAME[,NAME...]",
                        action="append", default=[],
                        help="with --compare: restrict the comparison to "
                             "these benches (repeatable); names absent "
                             "from both documents are an error")
    _shared(parser, "jobs", "require_identical", "output",
            output="write the document here (default BENCH_<rev>.json)",
            require_identical="with --compare: fail unless every "
                              "deterministic field (digest, event counts, "
                              "extra) matches — gates serial-vs-parallel "
                              "and same-revision reruns")


def _git_rev() -> str:
    """Short revision of the working tree, or ``unversioned`` outside git."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unversioned"
    return output.stdout.strip() or "unversioned"


def _bench_document(parser: argparse.ArgumentParser,
                    path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read BENCH document {path}: {exc}")
    if not isinstance(document, dict) or "benches" not in document:
        parser.error(f"{path} is not a BENCH document (no 'benches' key)")
    return document


def _bench(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.list:
        for name in sorted(BENCHES):
            print(f"{name:32s} {_first_doc_line(BENCHES[name])}")
        return 0
    if args.compare:
        old_doc, new_doc = (_bench_document(parser, path)
                            for path in args.compare)
        try:
            report = compare_documents(
                old_doc, new_doc, threshold=args.threshold,
                require_identical=args.require_identical,
                benches=_comma_names(args.benches) or None)
        except ValueError as exc:
            parser.error(str(exc))
        print(report.render())
        return report.exit_code
    if args.benches:
        parser.error("--benches only applies to --compare")

    rev = args.rev if args.rev is not None else _git_rev()
    jobs = _jobs(parser, args)
    if args.profile and jobs > 1:
        parser.error("--profile requires --jobs 1 (profiles are per-process)")
    if args.profile and args.repeat > 1:
        parser.error("--profile implies --repeat 1 (profiled wall times "
                     "are inflated; min-of-N would be meaningless)")
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    profiles: Optional[Dict[str, Any]] = {} if args.profile else None
    try:
        document = run_suite(names=_comma_names(args.only) or None,
                             quick=args.quick, rev=rev,
                             echo=lambda line: print(line, file=sys.stderr),
                             jobs=jobs, profiles=profiles,
                             repeat=args.repeat)
    except KeyError as exc:
        parser.error(str(exc.args[0]) if exc.args else str(exc))
    output = args.output or f"BENCH_{rev}.json"
    _write(parser, output, document)
    print(output)
    if profiles is not None:
        _write(parser, f"{output}.profile.json", {
            "schema": 1,
            "meta": {"rev": rev, "quick": args.quick, "top": 25},
            "profiles": profiles,
        })
        print(f"{output}.profile.json")
    return 0


# ----------------------------------------------------------------------

VERBS: Dict[str, Tuple[Callable[[argparse.ArgumentParser], None], Verb,
                       str]] = {
    "figures": (_figures_parser, _figures,
                "Regenerate the tables of the experiment catalogue: the "
                "paper's Figures 6-12, the extension figures 13-15, the "
                "ablations, the failover sweep and the theory tables."),
    "cluster": (_cluster_parser, _cluster,
                "Sharded multi-group RTPB: one run with both metric "
                "layers, or a --seeds sweep."),
    "replicas": (_replicas_parser, _replicas,
                 "Read-replica scaling sweep (replica counts x seeds)."),
    "elastic": (_elastic_parser, _elastic,
                "Elastic flash-crowd sweep (burst factors x seeds) under "
                "the invariant monitors."),
    "chaos": (_chaos_parser, _chaos,
              "Deterministic chaos runs from the scenario catalogue."),
    "bench": (_bench_parser, _bench,
              "Run the benchmark suite into a stable-JSON document, or "
              "compare two documents for regressions."),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RTPB reproduction: figures, sweeps, chaos runs and "
                    "benchmarks (all deterministic).")
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for name, (configure, run, description) in VERBS.items():
        sub = verbs.add_parser(name, help=description,
                               description=description)
        configure(sub)
        sub.set_defaults(run=run, parser=sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args.parser, args)


if __name__ == "__main__":
    sys.exit(main())
