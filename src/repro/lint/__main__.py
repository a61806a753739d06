"""Lint CLI: ``python -m repro.lint``.

Also installed as the ``repro-lint`` console script.  Examples::

    python -m repro.lint                      # analyze src and tests
    python -m repro.lint src --output json    # machine-readable report
    python -m repro.lint --rules              # rule catalogue
    python -m repro.lint --select PERF001 src # one rule only

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import lint_paths, select_rules
from repro.lint.registry import all_rules
from repro.metrics.jsonio import stable_dumps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=("Static checks for the RTPB reproduction that a run "
                     "cannot replace (see docs/LINT.md)."))
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: src tests)")
    parser.add_argument("--output", "--format", dest="output",
                        choices=("human", "json"), default="human",
                        help="report format")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--rules", action="store_true",
                        help="list the rule catalogue and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.summary}")
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

    findings = lint_paths(paths, rules=rules)
    if args.output == "json":
        print(stable_dumps({
            "findings": findings,
            "count": len(findings),
            "rules": [rule.code for rule in rules],
        }))
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
