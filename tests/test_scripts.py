"""The scripts exit 0 only if their checked invariant holds: every observed
order meets the bound, or the phase summary's counts add up.  Arguments
they cannot use end with exit 2 and one line, before any level runs."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from ptgauge import pointint

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def weak_residual_scaling():
    return _load("weak_residual_scaling")


def test_weak_residual_orders_pass(weak_residual_scaling, capsys):
    assert weak_residual_scaling.main(["--levels", "3"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_weak_residual_low_order_exits_one(weak_residual_scaling, capsys):
    # at beta = 3, r1 grows under refinement (observed orders -11.5, -3.9)
    assert weak_residual_scaling.main(["--beta", "3", "--levels", "3"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_matrix_convergence_orders_pass(capsys):
    study = _load("matrix_convergence_study")
    assert study.main(["--levels", "2", "--n-low", "6"]) == 0


@pytest.mark.parametrize("dist", [1e-3, float("nan")])
def test_matrix_convergence_low_order_exits_one(monkeypatch, capsys, dist):
    # a mismatch that does not shrink under refinement has order 0
    study = _load("matrix_convergence_study")
    monkeypatch.setattr(study, "lowest_mode_match", lambda res, n_low: dist)
    assert study.main(["--levels", "2", "--n-low", "6"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_point_phase_summary_counts_agree(capsys):
    summary = _load("point_phase_summary")
    assert summary.main(["--resolution", "4"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_point_phase_summary_unpaired_cell_exits_one(monkeypatch, capsys):
    summary = _load("point_phase_summary")
    sweep = pointint.pt_phase_sweep
    calls = []

    def one_unpaired(*axes):
        calls.append(axes)
        out = sweep(*axes)
        codes = out.classification.copy()
        codes[0] = pointint.CLASSIFICATIONS.index("unpaired")
        return dataclasses.replace(out, classification=codes)

    # one sweep, whether it is reached through the script or through pointint
    monkeypatch.setattr(summary, "pt_phase_sweep", one_unpaired)
    monkeypatch.setattr(pointint, "pt_phase_sweep", one_unpaired)
    assert summary.main(["--resolution", "3"]) == 1
    out = capsys.readouterr().out
    assert "is not the sweep size 81" in out
    assert len(calls) == 1


@pytest.mark.parametrize("name, argv", [
    ("matrix_convergence_study", ["--h0", "0"]),
    ("matrix_convergence_study", ["--levels", "1"]),
    ("matrix_convergence_study", ["--levels", "0"]),
    ("matrix_convergence_study", ["--gauge-alpha", "nan"]),
    ("weak_residual_scaling", ["--h0", "0"]),
    ("weak_residual_scaling", ["--levels", "1"]),
    ("point_phase_summary", ["--resolution", "0"]),
    # |gauge-alpha| box over 1e15, where spectrum-matrix exits 2
    ("matrix_convergence_study", ["--gauge-alpha", "1e20"]),
    # |beta| box^2 over 700 and |alpha| over 1e30, where gauge-scalar exits 2
    ("weak_residual_scaling", ["--beta", "100"]),
    ("weak_residual_scaling", ["--alpha", "1e200"]),
    # the finest of 30 levels has about 8.6e10 nodes, over the array budget
    ("weak_residual_scaling", ["--levels", "30"]),
    # 300 lowest modes of dim 120 at the coarsest level, where
    # spectrum-matrix exits 2
    ("matrix_convergence_study", ["--n-low", "300", "--levels", "2"]),
    # 10 nodes at the coarsest level, where gauge-scalar exits 2
    ("weak_residual_scaling", ["--h0", "1.6", "--levels", "2"]),
])
def test_unusable_arguments_exit_two(capsys, name, argv):
    assert _load(name).main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # 300 lowest modes of dim 1200, past the largest ARPACK request (256)
    ["--n-low", "300", "--levels", "2", "--h0", "0.02"],
    # 255 modes, but the levels come in degenerate pairs and no gap follows
    # the 255th of at most 256 shift-invert values
    ["--n-low", "255", "--levels", "2", "--h0", "0.04", "--box", "5"],
], ids=["over_the_cap_300", "uncertifiable_255"])
def test_cuts_past_a_certified_request_print_their_table(capsys, argv):
    """lowest_modes answers these cuts by eig's band route, so the study
    prints its table, whose observed order (2.00) meets MIN_ORDER, and
    exits 0."""
    study = _load("matrix_convergence_study")
    assert study.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert float(captured.out.splitlines()[-1].split()[-1]) >= study.MIN_ORDER


def test_report_diff_shows_a_scaled_and_a_renamed_record(tmp_path, capsys):
    """Two synthetic report directories: a record scaled by 1 + 1e-6, one
    renamed with its value kept, a config value moved and one table entry
    moved; the diff names each, with the scaled record's move in ulps and
    as a fraction of its tolerance."""
    from ptgauge.reporting import Report, Table, emit

    def write(sub, scale, renamed, order, entry):
        rep = Report(command="verify-all", config={"order": order, "n": 3})
        rep.add("a/scaled", 0.25 * scale, 1.0)
        rep.add("a/unchanged", 0.0, 0.5)
        rep.add(renamed, 1.5e-9, 1e-8)
        rep.tables.append(Table("spectrum", ["index", "value"],
                                [(0, 1.0), (1, entry)]))
        emit(rep, "json", str(tmp_path / sub))

    write("old", 1.0, "b/before", 2.0, 3.0)
    write("new", 1 + 1e-6, "b/after", 2.0 + 2**-51, 3.0 + 1e-12)
    assert _load("report_diff").main([str(tmp_path / "old"),
                                      str(tmp_path / "new")]) == 0
    lines = capsys.readouterr().out.splitlines()
    scaled = 0.25 * (1 + 1e-6)   # ulps of 2^-54 on [0.25, 0.5)
    assert lines[0] == "== verify-all.json"
    assert lines[1] == (
        f"  a/scaled: {0.25:.17e} -> {scaled:.17e}, "
        f"{round(1e-6 * 2**52)} ulp, "
        f"{scaled - 0.25:+.3g} of tolerance {1.0:.17e}")
    assert lines[2] == f"  renamed: b/before -> b/after (equal value {1.5e-9:.17e})"
    assert lines[3] == "  1 of 3 records unchanged"
    assert lines[4] == f"  config order: 2.0 -> {2.0 + 2**-51!r}, 1 ulp"
    assert lines[5] == ("  table spectrum: 2 -> 2 rows, largest entry move "
                        f"{1e-12:.3g} (row 1, column value)")
    assert len(lines) == 6


def test_report_diff_renames_only_a_value_one_pair_shares(tmp_path, capsys):
    """A removed and an added record are one rename only when no other
    removed or added record has their residual and tolerance: one zero
    removed against two zeros added, or two halves removed against one
    half added, are printed as removed and added records."""
    from ptgauge.reporting import Report, emit

    def write(sub, records):
        rep = Report(command="verify-all", config={})
        for name, residual, tolerance in records:
            rep.add(name, residual, tolerance)
        emit(rep, "json", str(tmp_path / sub))

    write("old", [("a/x", 0.0, 1e-12), ("c/before", 2.5e-9, 1e-8),
                  ("d/1", 0.5, 1.0), ("d/2", 0.5, 1.0)])
    write("new", [("b/y", 0.0, 1e-12), ("b/z", 0.0, 1e-12),
                  ("c/after", 2.5e-9, 1e-8), ("d/3", 0.5, 1.0)])
    assert _load("report_diff").main([str(tmp_path / "old"),
                                      str(tmp_path / "new")]) == 0
    zero, half = f"{0.0:.17e}", f"{0.5:.17e}"
    assert capsys.readouterr().out.splitlines() == [
        "== verify-all.json",
        f"  removed: a/x = {zero}",
        f"  renamed: c/before -> c/after (equal value {2.5e-9:.17e})",
        f"  removed: d/1 = {half}",
        f"  removed: d/2 = {half}",
        f"  added: b/y = {zero}",
        f"  added: b/z = {zero}",
        f"  added: d/3 = {half}",
        "  0 of 4 records unchanged"]


def test_report_diff_exits_two_on_a_missing_directory(tmp_path, capsys):
    assert _load("report_diff").main([str(tmp_path), str(tmp_path / "no")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
