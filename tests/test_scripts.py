"""The study scripts exit 0 only if every observed order meets the bound."""

import importlib.util
from pathlib import Path

import pytest

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
