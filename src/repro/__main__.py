"""``python -m repro <verb>`` — the one command line of the reproduction.

Verbs::

    python -m repro figures fig8                  # print a committed table
    python -m repro figures all --jobs 4 --output benchmarks/results
    python -m repro figures ablation_baselines --quick  # (``list`` names all)
    python -m repro cluster --shards 16 --hosts 6 --crash 3.0:g00/primary
    python -m repro cluster --seeds 0 1 2 3 --jobs 4
    python -m repro replicas --quick --jobs 2
    python -m repro elastic --factors 1 4 8 --seeds 0 1
    python -m repro chaos --matrix --seed 7 --output chaos.json
    python -m repro bench --quick --output BENCH_quick.json
    python -m repro bench --compare BENCH_old.json BENCH_new.json

Every verb but ``figures`` (rendered tables of the experiment catalogue,
:mod:`repro.experiments.catalogue`; ``--output DIR`` writes
``DIR/<stem>.txt``) and ``bench --compare`` (a text report) emits one
deterministic JSON document — sorted keys, no NaN, virtual-time
everything — to stdout or ``--output``.  A verb that runs simulations
writes each run with :func:`repro.parallel.run_document`, so one run reads
the same under every verb.  The options verbs share mean the same thing
everywhere:

- ``--jobs N`` (default ``$REPRO_JOBS`` or 1; 0 = one per CPU) spreads
  independent runs over worker processes.  Tables and documents are the
  same bytes for any value and any ``PYTHONHASHSEED`` (a BENCH document's
  wall times and ``meta`` aside), so CI's determinism gate is one ``cmp``
  of a ``--jobs 1`` run against a ``--jobs 2`` run under another hash
  seed.
- ``--quick`` shrinks a sweep to CI size (for ``figures``, the
  catalogue's quick preset instead of the paper size); an option given
  explicitly always wins over the quick preset.
- ``--warmup`` and every scheduled fault must lie in ``[0, horizon)``;
  a knob the scenario values reject is a usage error too.

Exit status: 0 on success, 1 when a regression or invariant gate
fails (``chaos``: a finding outside a scenario's expected set), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.bench.compare import compare_documents
from repro.bench.registry import SCENARIOS as BENCHES
from repro.bench.runner import run_suite
from repro.errors import ReproError
from repro.experiments.catalogue import CATALOGUE
from repro.faults.report import run_matrix
from repro.faults.scenarios import SCENARIOS as CHAOS_SCENARIOS
from repro.faults.scenarios import build as build_chaos
from repro.faults.schedule import FaultSchedule
from repro.metrics.jsonio import stable_dumps
from repro.parallel import RunSpec, derive_seed, resolve_jobs, run_document, run_specs
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


def _check_warmup(parser: argparse.ArgumentParser, warmup: float,
                  horizon: float) -> None:
    if not 0.0 <= warmup < horizon:
        parser.error(f"--warmup must be in [0, horizon): got {warmup:g} "
                     f"with a {horizon:g} s horizon")


def _check_at_least(parser: argparse.ArgumentParser, option: str,
                    value: float, least: float) -> None:
    if not value >= least:
        parser.error(f"{option} must be >= {least:g}: got {value:g}")


@contextlib.contextmanager
def _usage_errors(parser: argparse.ArgumentParser) -> Iterator[None]:
    """A knob a value rejects as it is made (a scenario, a fault) is a
    usage error: exit 2, never a traceback."""
    try:
        yield
    except ReproError as exc:
        parser.error(str(exc))


def _emit_sweep(parser: argparse.ArgumentParser, args: argparse.Namespace,
                specs: List[RunSpec], header: Dict[str, Any]) -> int:
    """Run ``specs`` and emit the verb's document: ``header`` plus one run
    document per spec, in spec order.

    The document does not name ``--jobs``: it is the same bytes for any
    worker count.
    """
    for spec in specs:
        horizon = spec.scenario.horizon
        _check_warmup(parser, spec.warmup, horizon)
        for fault in spec.fault_schedule or ():
            if fault.time >= horizon:
                parser.error(f"a fault at {fault.time:g} s would never fire "
                             f"in a {horizon:g} s horizon")
    outcomes = run_specs(specs, jobs=_jobs(parser, args))
    _emit(parser, {**header, "runs": [run_document(outcome)
                                      for outcome in outcomes]},
          args.output)
    return 0


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
                        help="attach the invariant monitor")
    _shared(parser, "horizon", "seeds", "jobs", "warmup", "output",
            horizon="virtual-time horizon, seconds (default 20)",
            seeds="root seeds, one run per seed (default 0)")
    parser.set_defaults(horizon=20.0, seeds=[0])


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
    except (ValueError, ReproError) as exc:
        parser.error(f"bad fault spec: {exc}")
    return schedule if len(schedule) else None


def _cluster(parser: argparse.ArgumentParser,
             args: argparse.Namespace) -> int:
    _check_at_least(parser, "--objects", args.objects, 1)
    schedule = _cluster_schedule(parser, args)
    # Several backups per group need the succession-aware discipline.
    replication = "multi_backup" if args.backups > 1 else "rtpb"
    with _usage_errors(parser):
        specs = [RunSpec(scenario=ClusterScenario(
                             n_shards=args.shards, n_hosts=args.hosts,
                             n_objects=args.objects,
                             backups_per_group=args.backups,
                             replication=replication, horizon=args.horizon,
                             loss_probability=args.loss, seed=seed),
                         warmup=args.warmup, monitor=args.monitor,
                         fault_schedule=schedule, key=(("seed", seed),))
                 for seed in args.seeds]
    return _emit_sweep(parser, args, specs, {})


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
    _shared(parser, "seeds", "horizon", "warmup", "jobs", "output",
            horizon="virtual-time horizon, seconds (default 12)")


def _replicas(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> int:
    _fill(args,
          full=dict(replica_counts=[0, 1, 2, 3], seeds=[0, 1], horizon=12.0),
          quick=dict(replica_counts=[0, 1, 2], seeds=[0], horizon=6.0))
    _check_at_least(parser, "--objects", args.objects, 1)
    with _usage_errors(parser):
        specs = [
            RunSpec(scenario=Scenario(
                        n_objects=args.objects, window=args.window,
                        horizon=args.horizon, n_replicas=count,
                        read_period=args.read_period,
                        read_policy=args.policy,
                        seed=derive_seed(seed, "replicas", count)),
                    warmup=args.warmup,
                    key=(("replicas", count), ("seed", seed)))
            for count in args.replica_counts for seed in args.seeds]
    return _emit_sweep(parser, args, specs,
                       {"policy": args.policy,
                        "read_period": args.read_period})


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
    _shared(parser, "seeds", "horizon", "warmup", "jobs", "output",
            horizon="virtual-time horizon, seconds (default 20)")


def _elastic(parser: argparse.ArgumentParser,
             args: argparse.Namespace) -> int:
    _fill(args,
          full=dict(factors=[1.0, 4.0, 8.0], seeds=[0, 1], horizon=20.0),
          quick=dict(factors=[1.0, 8.0], seeds=[0], horizon=10.0))
    _check_at_least(parser, "--objects", args.objects, 1)
    for factor in args.factors:
        # Below 1 is no burst at all, yet its key would name the factor.
        _check_at_least(parser, "--factors", factor, 1.0)
    specs = []
    for factor in args.factors:
        for seed in args.seeds:
            with _usage_errors(parser):
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
                                 key=(("factor", factor), ("seed", seed))))

    return _emit_sweep(parser, args, specs,
                       {"burst_at": args.burst_at,
                        "burst_duration": args.burst_duration})


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------


def _chaos_parser(parser: argparse.ArgumentParser) -> None:
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true",
                      help="list catalogue scenarios and exit")
    mode.add_argument("--scenario", action="append",
                      choices=sorted(CHAOS_SCENARIOS), metavar="NAME",
                      help="run this catalogue scenario (repeatable)")
    mode.add_argument("--matrix", action="store_true",
                      help="run every catalogue scenario")
    _shared(parser, "jobs", "seed", "warmup", "output")


def _chaos(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.list:
        for name in sorted(CHAOS_SCENARIOS):
            print(f"{name:28s} {CHAOS_SCENARIOS[name](0).description}")
        return 0
    names = sorted(CHAOS_SCENARIOS) if args.matrix else args.scenario
    for name in names:
        _check_warmup(parser, args.warmup,
                      build_chaos(name, args.seed).workload.horizon)
    document = run_matrix(names, seed=args.seed, jobs=_jobs(parser, args),
                          warmup=args.warmup)
    _emit(parser, document, args.output)
    # The gate: a finding outside a scenario's declared expected set.
    unexpected = [(name, finding) for name, run in document.items()
                  for finding in run["findings"]["unexpected"]]
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
    parser.add_argument("--require-identical", action="store_true",
                        help="with --compare: fail unless every "
                             "deterministic field (digest, event counts, "
                             "extra) matches — gates serial-vs-parallel "
                             "and same-revision reruns")
    _shared(parser, "jobs", "output",
            jobs="worker processes (0 = one per CPU; default: $REPRO_JOBS "
                 "or 1); every field but wall times and meta is "
                 "byte-identical for any value",
            output="write the document here (default BENCH_<rev>.json)")


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
    try:
        document = run_suite(names=_comma_names(args.only) or None,
                             quick=args.quick, rev=rev,
                             echo=lambda line: print(line, file=sys.stderr),
                             jobs=_jobs(parser, args), repeat=args.repeat)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc.args[0]) if exc.args else str(exc))
    output = args.output or f"BENCH_{rev}.json"
    _write(parser, output, document)
    print(output)
    return 0


# ----------------------------------------------------------------------

VERBS: Dict[str, Tuple[Callable[[argparse.ArgumentParser], None], Verb,
                       str]] = {
    "figures": (_figures_parser, _figures,
                "Regenerate the tables of the experiment catalogue: the "
                "paper's Figures 6-12, the extension figures 13-15, the "
                "ablations, the failover sweep and the theory tables."),
    "cluster": (_cluster_parser, _cluster,
                "Sharded multi-group RTPB: one run per --seeds seed, each "
                "with its per-group metrics and placements."),
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
