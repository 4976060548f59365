"""The scripts exit 0 only if their checked invariant holds: every observed
order meets the bound, or the phase summary's counts add up.  Arguments
they cannot use end with exit 2 and one line, before any level runs or,
for an n-low that no level can certify, before any output."""

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
    # 300 lowest modes of dim 1200, over the cap of lowest_modes (255)
    ("matrix_convergence_study", ["--n-low", "300", "--levels", "2",
                                  "--h0", "0.02"]),
    # 10 nodes at the coarsest level, where gauge-scalar exits 2
    ("weak_residual_scaling", ["--h0", "1.6", "--levels", "2"]),
])
def test_unusable_arguments_exit_two(capsys, name, argv):
    assert _load(name).main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1


def test_uncertifiable_n_low_exits_two(capsys):
    """The example's levels come in degenerate pairs, so no gap follows the
    255th of at most 256 shift-invert values and no level can certify 255
    modes; the run names --n-low instead of ending in a traceback."""
    study = _load("matrix_convergence_study")
    assert study.main(["--n-low", "255", "--levels", "2", "--h0", "0.04",
                       "--box", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --n-low 255 at h 0.04: "
                                   "lowest_modes: no certified lowest 255")
    assert captured.err.count("\n") == 1
