"""The experiment catalogue: complete, renderable, and the studies' shapes.

Every catalogue entry is rendered once at its quick size (across two
worker processes, halving what the module costs tier-1) and the renders
are shared by all tests.  The paper-size tables are pinned byte for byte by
CI's ``figures all --output benchmarks/results && git diff --exit-code``;
what is asserted here is the *direction* each study argues from, which
must already hold at the quick size.

Worker-count independence is checked for the studies (their fan-out is
``studies._table``) bar the three whose quick size is too dear to run twice;
the figure sweeps' is in ``tests/parallel/test_determinism.py``.
"""

import functools
from pathlib import Path

import pytest

from repro.experiments.catalogue import CATALOGUE
from repro.metrics.report import Series, Table

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

STUDIES = sorted(name for name in CATALOGUE if not name.startswith("fig"))


@functools.lru_cache(maxsize=None)
def quick(name, jobs=2):
    return CATALOGUE[name].run(quick=True, jobs=jobs)


def cells(name):
    """A study's quick table as one dict per row: column header -> cell,
    numeric cells as floats."""
    table = quick(name)
    assert isinstance(table, Table)

    def parse(cell):
        try:
            return float(cell)
        except ValueError:
            return cell

    return [dict(zip(table.columns, map(parse, row))) for row in table.rows]


def by(rows, *keys):
    return {tuple(row[key] for key in keys): row for row in rows}


# ---------------------------------------------------------------------------
# Catalogue completeness
# ---------------------------------------------------------------------------


def test_committed_tables_are_exactly_the_catalogue():
    committed = {path.stem for path in RESULTS_DIR.glob("*.txt")}
    assert committed == set(CATALOGUE)


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_every_entry_renders_at_quick_size(name):
    table = quick(name)
    assert isinstance(table, (Series, Table))
    lines = table.render().splitlines()
    assert len(lines) >= 4  # title, header, rule, at least one row


@pytest.mark.parametrize("name", sorted(
    set(STUDIES) - {"ablation_cpu_scheduler", "ablation_baselines",
                    "extension_deferrable_server"}))
def test_worker_count_does_not_change_a_study(name):
    # (positional: lru_cache keys ``quick(name)`` and ``quick(name, 1)``)
    assert quick(name).render() == quick(name, 1).render()


# ---------------------------------------------------------------------------
# Ablations A-E
# ---------------------------------------------------------------------------


def test_ablation_a_acks_cost_traffic_and_buy_no_freshness():
    rows = by(cells("ablation_ack_strategy"), "loss", "acks")
    for loss in sorted({loss for loss, _ in rows}):
        no_ack, with_ack = rows[(loss, "no")], rows[(loss, "yes")]
        assert with_ack["fabric msgs"] > 1.4 * no_ack["fabric msgs"]
        assert with_ack["fabric kB"] > no_ack["fabric kB"]
        # ...without buying meaningful freshness in this (no-retry-on-ack)
        # design: the paper's point that acks are pure overhead here.
        assert (with_ack["avg max distance (ms)"]
                >= no_ack["avg max distance (ms)"] - 60.0)


def test_ablation_b_slack_trades_transmissions_for_freshness():
    rows = by(cells("ablation_update_slack"), "slack")
    tight, loose = rows[(1.0,)], rows[(3.0,)]
    assert loose["updates sent"] > 2 * tight["updates sent"]
    assert loose["avg max distance (ms)"] < tight["avg max distance (ms)"]


def test_ablation_c_rtpb_is_fast_and_window_bounded():
    rows = by(cells("ablation_baselines"), "system", "write period (ms)")
    periods = sorted({period for _, period in rows})
    assert len(periods) == 2
    for period in periods:
        response = {system: rows[(system, period)]["mean response (ms)"]
                    for system, _ in rows}
        # Eager pays the round trip on every write, active the agreement.
        assert response["eager"] > 3 * response["rtpb"]
        assert response["active"] > 3 * response["rtpb"]
        # The hybrid answers locally: passive-grade response times.
        assert response["semi_active"] < response["active"] / 3
        # Window-consistent responds as fast as RTPB...
        assert response["window_consistent"] < 3 * response["rtpb"] + 1.0
    # ...but under fast writers sends far more updates than RTPB.
    fast = periods[0]
    assert (rows[("window_consistent", fast)]["updates sent"]
            > 2 * rows[("rtpb", fast)]["updates sent"])


def test_ablation_d_bursty_loss_hurts_more_than_iid_at_the_same_rate():
    rows = by(cells("ablation_burst_loss"), "loss model")
    assert (rows[("bursty 10% (GE)",)]["avg max distance (ms)"]
            > rows[("iid 10%",)]["avg max distance (ms)"])


def test_ablation_e_edf_shares_overload_rm_starves_the_rpcs():
    rows = cells("ablation_cpu_scheduler")
    admitted = [row for row in rows if isinstance(row["objects"], float)]
    overload = by([row for row in rows if row not in admitted], "policy")
    assert {row["policy"] for row in admitted} == {"edf", "rm"}
    for row in admitted:
        # The admitted set passes the RM test: no update-deadline misses
        # under either policy, and responses stay bounded.
        assert row["deadline misses"] == 0
        assert row["mean response (ms)"] < (30 if row["policy"] == "edf"
                                            else 60)
    # Under uncontrolled overload EDF shares the pain; fixed-priority RM
    # starves the (aperiodic) client RPCs.
    edf_starved = overload[("edf",)]["starved RPCs"]
    assert overload[("rm",)]["starved RPCs"] > 10 * max(edf_starved, 1)


# ---------------------------------------------------------------------------
# Recovery, extensions
# ---------------------------------------------------------------------------


def test_failover_tracks_the_detection_bound_and_service_resumes():
    rows = cells("failover_latency")
    for row in rows:
        latency = row["measured failover (ms)"]
        assert latency == latency, "no failover happened"
        assert latency <= row["detection bound (ms)"] + 50.0
        assert row["writes after takeover"] > 50
        assert row["new backup recruited"] == "True"
    # Faster heartbeats detect faster.
    latencies = [row["measured failover (ms)"] for row in rows]
    assert latencies == sorted(latencies) and latencies[0] < latencies[-1]


def test_multibackup_traffic_scales_with_fanout_response_does_not():
    rows = by(cells("extension_multibackup"), "backups")
    one, four = rows[(1.0,)], rows[(4.0,)]
    assert four["fabric msgs"] > 2.5 * one["fabric msgs"]
    assert four["mean response (ms)"] < 3 * one["mean response (ms)"] + 1.0
    assert four["max inter-backup version skew"] <= 4


def test_dcs_transmission_has_no_more_jitter_than_normal():
    rows = by(cells("extension_dcs_transmission"), "mode", "loss")
    column = "worst tx phase variance (ms)"
    assert rows[("dcs", 0.0)][column] <= rows[("normal", 0.0)][column]
    assert rows[("dcs", 0.0)][column] <= 2.0


def test_deferrable_server_serves_rpcs_without_costing_a_deadline():
    for row in cells("extension_deferrable_server"):
        assert row["deadline misses"] == 0, row["variant"]
        # A small in-flight tail is queued at the horizon; nothing beyond.
        assert row["starved"] <= 15, row["variant"]
        assert row["mean resp (ms)"] < 40.0


# ---------------------------------------------------------------------------
# Theory
# ---------------------------------------------------------------------------


def test_theorem5_no_violation_at_or_below_the_boundary():
    rows = cells("theory_theorem5_boundary")
    ratios = [row["r / r*"] for row in rows]
    assert min(ratios) < 1.0 and 1.0 in ratios and max(ratios) >= 1.5
    for row in rows:
        if row["r / r*"] <= 1.0:
            # Sufficiency is universal: at or under the bound, no run may
            # violate δ^B.
            assert row["violations"] == 0, row
        elif row["r / r*"] >= 1.5:
            # Necessity is constructive: just past the bound the realised
            # phasing may stay lucky, well past it every phasing violates.
            assert row["violations"] > 0, row


def test_phase_variance_stays_within_the_bounds_and_is_zero_under_sr():
    rows = cells("theory_phase_variance")
    assert rows
    for row in rows:
        assert row["EDF meas"] <= row["2.1 bound"]
        if row["RM meas"] != "-":
            assert row["RM meas"] <= row["2.1 bound"]
        assert row["EDF compressed"] <= row["Thm2 bound"]
        # Theorem 3: exactly periodic completions under Sr.
        assert row["DCS Sr meas"] == 0.0
