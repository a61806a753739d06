"""Tests for ``python -m repro``: the ``figures`` verb, the ``cluster`` verb
and the option handling all verbs share."""

import json

import pytest

from repro.__main__ import main
from repro.experiments.catalogue import CATALOGUE


def test_list_prints_all_figures(capsys):
    assert main(["figures", "list"]) == 0
    out = capsys.readouterr().out
    for name in CATALOGUE:
        assert name in out


def test_short_name_prints_the_catalogue_table(capsys):
    # fig8 is fig08_distance_vs_loss, at the catalogue's size and seed.
    assert main(["figures", "fig8", "--quick"]) == 0
    table = CATALOGUE["fig08_distance_vs_loss"].run(quick=True).render()
    assert capsys.readouterr().out.startswith(table + "\n[fig08_")


def test_output_directory_receives_one_file_per_table(tmp_path, capsys):
    assert main(["figures", "theory_phase_variance", "--quick",
                 "--output", str(tmp_path)]) == 0
    written = tmp_path / "theory_phase_variance.txt"
    assert written.read_text(encoding="utf-8") == CATALOGUE[
        "theory_phase_variance"].run(quick=True).render() + "\n"
    # The table went to the file; stdout names it.
    out = capsys.readouterr().out
    assert str(written) in out and "Theorems 2-3" not in out
    with pytest.raises(SystemExit):
        main(["figures", "theory_phase_variance", "--quick",
              "--output", str(tmp_path / "missing" / "dir")])


def test_quick_figure_runs_and_prints_table(capsys):
    assert main(["figures", "fig8", "--quick", "--horizon", "4"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8" in out
    assert "loss probability" in out
    assert "wall]" in out


def test_seed_is_threaded_through(capsys):
    main(["figures", "fig8", "--quick", "--horizon", "4", "--seed", "1"])
    first = capsys.readouterr().out
    main(["figures", "fig8", "--quick", "--horizon", "4", "--seed", "1"])
    second = capsys.readouterr().out
    # Identical seeds -> identical tables (strip timing lines).
    strip = lambda text: "\n".join(
        line for line in text.splitlines() if not line.startswith("["))
    assert strip(first) == strip(second)


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figures", "fig99"])


def test_jobs_flag_produces_identical_tables(capsys):
    from repro.parallel import process_support

    if not process_support():
        pytest.skip("no process support")
    main(["figures", "fig8", "--quick", "--horizon", "4", "--jobs", "1"])
    serial = capsys.readouterr().out
    main(["figures", "fig8", "--quick", "--horizon", "4", "--jobs", "2"])
    parallel = capsys.readouterr().out
    strip = lambda text: "\n".join(
        line for line in text.splitlines() if not line.startswith("["))
    assert strip(serial) == strip(parallel)


def test_negative_jobs_rejected():
    with pytest.raises(SystemExit):
        main(["figures", "fig8", "--quick", "--jobs", "-3"])


def test_jobs_env_var_is_honoured(monkeypatch, capsys):
    # REPRO_JOBS supplies the default; a bad value is a usage error.
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    with pytest.raises(SystemExit):
        main(["figures", "fig8", "--quick", "--horizon", "4"])


@pytest.mark.parametrize("argv, quick_horizon", [
    (["figures", "fig13"], 6.0),
    (["figures", "fig14"], 6.0),
    (["figures", "fig15"], 10.0),
    (["replicas"], 6.0),
    (["elastic"], 10.0),
])
def test_explicit_horizon_wins_over_the_quick_preset(
        monkeypatch, capsys, argv, quick_horizon):
    # --quick used to overwrite a --horizon given on the same command line.
    horizons = []

    def record(specs, jobs=1):
        horizons.extend(spec.scenario.horizon for spec in specs)
        return []

    monkeypatch.setattr("repro.__main__.run_specs", record)
    monkeypatch.setattr("repro.experiments.figures.run_specs", record)
    assert main(argv + ["--quick"]) == 0
    assert horizons and set(horizons) == {quick_horizon}
    del horizons[:]
    assert main(argv + ["--quick", "--horizon", "3"]) == 0
    assert horizons and set(horizons) == {3.0}


def test_cluster_verb_single_run_and_seed_sweep(capsys):
    size = ["cluster", "--shards", "2", "--hosts", "4", "--objects", "4",
            "--horizon", "4"]
    assert main(size + ["--crash", "2.5:g00/primary", "--monitor"]) == 0
    single = json.loads(capsys.readouterr().out)
    assert sorted(single["per_group"]) == ["rtpb/g00", "rtpb/g01"]
    assert [fault["kind"] for fault in single["faults"]] == ["crash"]
    assert single["violations"] == {}
    assert main(size + ["--seeds", "0", "1"]) == 0
    sweep = json.loads(capsys.readouterr().out)
    assert [run["seed"] for run in sweep["runs"]] == [0, 1]
    # Seed 0's sweep entry is the fault-free twin of the single run.
    assert sweep["runs"][0]["admitted"] == single["cluster"]["admitted"]
    with pytest.raises(SystemExit):
        main(size + ["--crash", "soon:g00/primary"])
