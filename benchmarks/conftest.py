"""Benchmark-suite plumbing.

Every bench regenerates one of the paper's figures (or a theory table /
ablation), records the rendered table under ``benchmarks/results/``, and the
terminal-summary hook replays all tables at the end of the run so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures the
actual series alongside the timing stats.

Benches that also produce *machine-readable* counters (event totals, peak
live events, trace sizes) persist them with :func:`record_counters`, which
writes one stable-JSON sidecar per bench — the same serialisation the
``python -m repro bench`` harness uses, so the two surfaces diff alike.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict

import pytest

from repro.metrics.jsonio import stable_dumps

_RESULTS: Dict[str, str] = {}
_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_table():
    """Record a rendered table: shown in the summary + saved to results/."""

    def _record(name: str, text: str) -> None:
        _RESULTS[name] = text
        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _record


@pytest.fixture
def record_counters():
    """Persist a bench's deterministic counters as stable JSON in results/."""

    def _record(name: str, counters: Dict[str, Any]) -> None:
        _RESULTS_DIR.mkdir(exist_ok=True)
        path = _RESULTS_DIR / f"{name}.counters.json"
        path.write_text(stable_dumps(counters) + "\n")

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.write_sep("=", "reproduced figures / tables")
    for name in sorted(_RESULTS):
        terminalreporter.write_line("")
        terminalreporter.write_line(_RESULTS[name])
