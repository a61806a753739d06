"""The kept rules over the library itself."""

from pathlib import Path

from repro.lint import lint_paths


def test_whole_program_pass_over_the_real_library_is_clean():
    # The dogfooding gate: every kept rule runs over src/repro and the
    # tree holds.
    src_root = Path(__file__).resolve().parents[2] / "src"
    assert lint_paths([src_root]) == []
