"""Determinism & real-time-safety analyzer CLI: ``python -m repro.lint``.

Also installed as the ``repro-lint`` console script.  Examples::

    python -m repro.lint                      # analyze src and tests
    python -m repro.lint src --output json    # machine-readable report
    python -m repro.lint --rules              # rule catalogue
    python -m repro.lint --select PROTO001 src  # one rule only
    python -m repro.lint --update-baseline    # grandfather current findings

Exit status: 0 clean (or fully baselined), 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import Baseline
from repro.lint.engine import lint_paths, select_rules
from repro.lint.registry import all_rules
from repro.metrics.jsonio import stable_dumps

DEFAULT_BASELINE = Path("lint-baseline.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=("Whole-program determinism, protocol-conformance and "
                     "real-time-safety analyzer for the RTPB "
                     "reproduction."))
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: src tests)")
    parser.add_argument("--output", "--format", dest="output",
                        choices=("human", "json"), default="human",
                        help="report format")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        metavar="FILE",
                        help="baseline file of grandfathered findings "
                             "(default: lint-baseline.json if present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report baselined findings too")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline file from current "
                             "findings and exit 0")
    parser.add_argument("--rules", action="store_true",
                        help="list the rule catalogue and exit")
    return parser


def _print_rules() -> None:
    for rule in all_rules():
        print(f"{rule.code}  {rule.summary}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.rules:
        _print_rules()
        return 0

    paths = [Path(p) for p in (args.paths or ["src", "tests"])]
    missing = [path for path in paths if not path.exists()]
    if missing:
        print(f"error: no such path: "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2
    try:
        rules = select_rules(
            args.select.split(",") if args.select else None)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.update_baseline:
        findings = lint_paths(paths, rules=rules, baseline=None)
        Baseline.from_findings(findings).save(args.baseline)
        print(f"wrote {len(findings)} finding(s) to {args.baseline}")
        return 0

    baseline = None if args.no_baseline else Baseline.load(args.baseline)
    findings = lint_paths(paths, rules=rules, baseline=baseline)

    if args.output == "json":
        report = {
            "findings": findings,
            "count": len(findings),
            "rules": [rule.code for rule in rules],
            "baseline": None if baseline is None else len(baseline),
        }
        print(stable_dumps(report))
    else:
        for finding in findings:
            print(finding.render())
        checked = ", ".join(str(path) for path in paths)
        verdict = ("clean" if not findings
                   else f"{len(findings)} finding(s)")
        print(f"repro.lint: {verdict} over {checked} "
              f"({len(rules)} rules)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
