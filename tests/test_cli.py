import argparse
import json
import tracemalloc

import pytest

from ptgauge.cli import build_parser, main
from ptgauge.verification import JcParams, SpectrumMatrixParams, \
    UsageError, _parse_complex, _parse_range


class TestParsers:
    def test_complex_forms(self):
        assert _parse_complex("1", "k") == 1
        assert _parse_complex("0.5-2i", "k") == 0.5 - 2j
        assert _parse_complex("3i", "k") == 3j
        assert _parse_complex("-1i", "k") == -1j

    def test_complex_malformed(self):
        with pytest.raises(UsageError, match="t12"):
            _parse_complex("one", "t12")

    def test_range(self):
        r = _parse_range("-1:1:5", "k")
        assert list(r) == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_range_malformed(self):
        with pytest.raises(UsageError):
            _parse_range("-1:1", "k")
        with pytest.raises(UsageError):
            _parse_range("a:b:3", "k")
        with pytest.raises(UsageError):
            _parse_range("0:1:0", "k")


class TestExitCodes:
    def test_passing_command_exits_zero(self, tmp_path, capsys):
        code = main(["point-angle", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "point-angle: PASS" in out

    def test_check_failure_exits_one(self, tmp_path, capsys):
        # an unattainable tolerance turns the r1 check red
        code = main(["gauge-scalar", "--h", "0.1", "--box", "6.0",
                     "--tol", "1e-30", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_malformed_flag_value_exits_two(self, tmp_path, capsys):
        code = main(["point-angle", "--t12", "oops",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_non_pt_coupling_exits_two(self, tmp_path, capsys):
        code = main(["point-angle", "--t11", "1i",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "PT-symmetric" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_bad_grid_exits_two(self, tmp_path, capsys):
        code = main(["gauge-scalar", "--h", "-0.1",
                     "--out-dir", str(tmp_path)])
        assert code == 2


class TestConfigFile:
    def test_values_applied(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t11 = -2\nt12 = 0i\n# comment line\nt21 = 0i\n")
        code = main(["point-spectrum", "--config", str(cfg),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "point-spectrum.json").read_text())
        assert payload["config"]["t11"] == "-2"
        assert payload["config"]["n_bound"] == 1

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t11 = -2\n")
        main(["point-spectrum", "--config", str(cfg), "--t11", "-4",
              "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "point-spectrum.json").read_text())
        assert payload["config"]["t11"] == "-4"

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_knob = 3\n")
        code = main(["point-angle", "--config", str(cfg),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus_knob" in err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line without equals\n")
        assert main(["point-angle", "--config", str(cfg)]) == 2

    def test_malformed_typed_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = many\n")
        assert main(["lts-check", "--config", str(cfg)]) == 2

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert main(["point-angle",
                     "--config", str(tmp_path / "absent.cfg")]) == 2


class TestOutputs:
    def test_report_dir_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PTGAUGE_REPORT_DIR", str(tmp_path / "envdir"))
        code = main(["point-angle"])
        assert code == 0
        assert (tmp_path / "envdir" / "point-angle.json").exists()

    def test_out_dir_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PTGAUGE_REPORT_DIR", str(tmp_path / "envdir"))
        main(["point-angle", "--out-dir", str(tmp_path / "flagdir")])
        assert (tmp_path / "flagdir" / "point-angle.json").exists()
        assert not (tmp_path / "envdir").exists()

    def test_phase_diagram_csv_schema(self, tmp_path, capsys):
        # values starting with '-' need the --flag=value spelling
        code = main(["phase-diagram", "--t11-range=-2:0:2",
                     "--t22-range=0:0:1", "--im-t12-range=-1:1:2",
                     "--im-t21-range=-1:1:2",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        lines = ((tmp_path / "phase-diagram_phase_diagram.csv")
                 .read_text().splitlines())
        assert lines[0] == ("t11,t22,im_t12,im_t21,phi,degenerate,n_bound,"
                            "e1_re,e1_im,e2_re,e2_im,classification")
        assert len(lines) == 1 + 2 * 1 * 2 * 2

    def test_phase_diagram_byte_reproducible(self, tmp_path, capsys):
        args = ["phase-diagram", "--t11-range=-2:1:3",
                "--t22-range=-1:1:2", "--im-t12-range=-1:1:2",
                "--im-t21-range=-1:1:2"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        name = "phase-diagram_phase_diagram.csv"
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())

    @pytest.mark.parametrize("argv, written", [
        (["phase-diagram", "--t11-range=-2:0:2", "--t22-range=0:0:1",
          "--im-t12-range=-1:1:2", "--im-t21-range=-1:1:2"],
         ["phase-diagram_phase_diagram.csv"]),
        (["point-spectrum", "--t11=-2"], ["point-spectrum.json"]),
        (["spectrum-matrix", "--h", "0.2", "--n-low", "4"],
         ["spectrum-matrix.json", "spectrum-matrix_spectrum.csv"]),
    ])
    def test_default_format_per_command(self, argv, written, tmp_path, capsys):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == written

    def test_lts_json_report(self, tmp_path, capsys):
        code = main(["lts-check", "--samples", "20", "--seed", "5",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "lts-check.json").read_text())
        assert payload["seed"] == 5
        assert payload["pass"] is True
        names = [r["name"] for r in payload["records"]]
        assert "lts/ternary_closure" in names

    def test_lts_sampling_memory_does_not_grow(self, tmp_path, capsys):
        """20000 triples at (3, 2) run in fixed-size batches: the traced
        peak stays at a few MB (about 2.8 MB, as for 1000 triples), where
        one stack of all of them would take over 24 MB."""
        tracemalloc.start()
        try:
            code = main(["lts-check", "--p", "3", "--q", "2", "--samples",
                         "20000", "--out-dir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 6 * 2**20


# One invalid input per subcommand (some have more): each is rejected while
# the params are built, before any computation.
INVALID = [
    # sizes whose largest array is over verification.MAX_ARRAY_BYTES
    ["gauge-scalar", "--h", "1e-12"],
    ["cartan", "--p", "100000000000000000000"],
    ["lts-check", "--q", "100000000"],
    ["spectrum-matrix", "--h", "1e-6"],
    ["spectrum-matrix", "--h", "8e-6"],      # 18 test vectors, just over
    ["jc", "--n-max", "100000000000000000000000"],
    ["jc", "--h", "1e-5"],
    ["gauge-scalar", "--h", "100"],          # no grid node
    ["gauge-scalar", "--h", "0"],
    ["gauge-scalar", "--beta", "nan", "--h", "0.1"],
    ["gauge-scalar", "--tol", "0"],
    ["gauge-scalar", "--alpha", "1e308", "--h", "0.1"],   # Q overflows
    ["gauge-scalar", "--beta", "11", "--h", "0.1"],       # e^{beta box^2}
    ["gauge-scalar", "--beta=-11", "--h", "0.1"],
    ["cartan", "--p", "0"],
    ["cartan", "--seed=-1"],
    ["lts-check", "--p", "0"],
    ["lts-check", "--samples", "0"],
    # g_Theta of dimension <= 1: no bracket can leave it
    ["lts-check", "--p", "1", "--q", "1"],
    ["lts-check", "--p", "2", "--q", "0"],
    ["lts-check", "--p", "1", "--q", "0"],
    ["spectrum-matrix", "--h", "100"],
    ["spectrum-matrix", "--n-low", "0"],
    ["spectrum-matrix", "--gauge-alpha", "inf"],
    ["spectrum-matrix", "--gauge-alpha", "1e20"],   # expm overflows
    ["spectrum-matrix", "--gauge-alpha", "1e18"],   # U loses unitarity
    ["jc", "--h", "100"],
    ["jc", "--h", "0"],
    ["jc", "--h", "3"],                      # box too small for n_max
    ["jc", "--n-max", "1"],
    ["jc", "--delta", "nan"],
    ["jc", "--alpha", "1e200"],              # a^2 in V(x) overflows
    ["jc", "--delta", "1e308"],              # 2 delta in V(x) overflows
    ["point-angle", "--t11", "1i"],
    ["point-angle", "--t12", "nan"],
    ["point-spectrum", "--t11", "nan"],
    ["point-spectrum", "--t22", "1e400"],
    # det T + 4 = inf - inf
    ["point-angle", "--t11", "1e200", "--t12", "1e200i", "--t21=-1e200i",
     "--t22", "1e200"],
    ["point-spectrum", "--t11", "1e200", "--t12", "1e200i", "--t21=-1e200i",
     "--t22", "1e200"],
    ["phase-diagram", "--t11-range=nan:1:2"],
    ["phase-diagram", "--t22-range=0:inf:2"],
    # sweeps whose rows, 12 table cells each, are over the budget
    ["phase-diagram", "--t11-range=0:1:100000000000000000000"],
    ["phase-diagram", "--t11-range=0:1:100000", "--t22-range=0:1:100000"],
    # det T + 4 at a corner of the sweep is not finite
    ["phase-diagram", "--t11-range=1e200:1e200:1", "--t22-range=1e200:1e200:1",
     "--im-t12-range=1e200:1e200:1", "--im-t21-range=-1e200:-1e200:1"],
    # |c0| or |c1| of det M(k) over 1e140: -c1/c2 would overflow
    ["point-spectrum", "--t11", "1", "--t12", "1e150i", "--t21", "2e150i",
     "--t22", "1e-13"],
    ["phase-diagram", "--t11-range=1:1:1", "--t22-range=1e-13:1e-13:1",
     "--im-t12-range=1e150:1e150:1", "--im-t21-range=2e150:2e150:1"],
    ["verify-all", "--seed=-1"],
]


class TestInvalidInput:
    @pytest.mark.parametrize("argv", INVALID, ids=" ".join)
    def test_exits_two_with_one_line(self, argv, tmp_path, capsys):
        tracemalloc.start()
        try:
            code = main(argv + ["--out-dir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("usage error:")
        assert not list(tmp_path.iterdir())
        assert peak < 2**20   # nothing of the problem's size was allocated

    def test_budget_sizes_the_sparse_routes(self):
        """spectrum-matrix and jc no longer densify their grid builds, so
        grids whose dense matrix would be over the budget are accepted."""
        assert 2 * SpectrumMatrixParams(h=0.003).grid().size == 10668
        assert 2 * JcParams(h=0.004).grid().size > 8192
        with pytest.raises(UsageError, match="Arnoldi basis"):
            JcParams(h=2e-4)

    def test_config_file_value_checked(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h = 100\n")
        assert main(["jc", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("usage error:")


# Every subcommand's flags as (flag, default, type), and its default format.
COMMON = {"-h", "--config", "--out-dir", "--format"}
POINT = [("--t11", "1", None), ("--t12", "1i", None),
         ("--t21", "-1i", None), ("--t22", "0", None)]
FLAGS = {
    "gauge-scalar": ("json", [("--alpha", 1.0, float), ("--beta", 0.0, float),
                              ("--box", 8.0, float), ("--h", 0.00625, float),
                              ("--tol", 1e-8, float)]),
    "cartan": ("json", [("--p", 2, int), ("--q", 1, int),
                        ("--samples", 100, int), ("--seed", 0, int)]),
    "lts-check": ("json", [("--p", 2, int), ("--q", 1, int),
                           ("--samples", 1000, int), ("--seed", 0, int)]),
    "spectrum-matrix": ("both", [("--gauge-alpha", 0.3, float),
                                 ("--box", 8.0, float), ("--h", 0.05, float),
                                 ("--n-low", 16, int)]),
    "jc": ("json", [("--alpha", 0.3, float), ("--delta", 0.5, float),
                    ("--n-max", 12, int), ("--h", 0.045, float)]),
    "point-angle": ("json", POINT),
    "point-spectrum": ("json", POINT),
    "phase-diagram": ("csv", [("--t11-range", "-2:1:4", None),
                              ("--t22-range", "-1:1:3", None),
                              ("--im-t12-range", "-1.5:1.5:4", None),
                              ("--im-t21-range", "-1.5:1.5:4", None)]),
    "verify-all": ("both", [("--seed", 20260823, int)]),
}

# Record names and config keys of each subcommand's report at cheap flags.
REPORTS = {
    "gauge-scalar": (["--h", "0.1"], [
        "factorization/J_hermitian", "factorization/J_involution",
        "factorization/P_RQ_anticommute", "factorization/P_U",
        "factorization/P_Uh", "factorization/P_Uu", "factorization/polar",
        "factorization/sign_split", "pseudo_hermiticity/r1",
        "pseudo_hermiticity/weighted_form",
        "pseudo_hermiticity/naive_parity_r2_large"],
        ["alpha", "beta", "box", "h", "norm_H", "r1_abs", "r2_abs", "tol"]),
    "cartan": (["--samples", "5"], [
        "cartan/wick_membership", "cartan/closed_form_exponentials",
        "cartan/parity_metric_relations", "cartan/group_polar_structure"],
        ["p", "q", "samples", "seed"]),
    "lts-check": (["--samples", "5"], [
        "lts/ternary_closure", "lts/binary_bracket_escapes"],
        ["max_binary_escape", "p", "q", "samples", "seed"]),
    "spectrum-matrix": (["--h", "0.2", "--n-low", "4"], [
        "matrix/symmetry_audit", "matrix/spectral_match", "matrix/pairing_Hg",
        "matrix/pairing_H", "matrix/parity_pseudo_hermiticity"],
        ["box", "gauge_alpha", "h", "n_low"]),
    "jc": (["--n-max", "4", "--h", "0.1"], [
        "jc/pt_symmetry", "jc/grid_vs_fock", "jc/truncation_convergence"],
        ["alpha", "delta", "h", "n_max", "sign_convention"]),
    "point-angle": ([], [
        "point/defining_relation", "point/trace_identities",
        "point/gamma_transform", "point/matrix_relation",
        "point/p_phi_selfadjointness"],
        ["degenerate", "phi", "t11", "t12", "t21", "t22"]),
    "point-spectrum": (["--t11=-2"], [
        "point/domain_residuals", "point/conjugate_pairing"],
        ["classification", "n_bound", "t11", "t12", "t21", "t22"]),
    "phase-diagram": (["--t11-range=-2:0:2", "--t22-range=0:0:1",
                       "--im-t12-range=-1:1:2", "--im-t21-range=-1:1:2"],
                      ["sweep/conjugate_pairing"],
                      ["im_t12_range", "im_t21_range", "t11_range", "t22_range"]),
}


class TestInterface:
    def _subparsers(self):
        return next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def test_flags_defaults_types_and_format(self):
        subparsers = self._subparsers()
        assert list(subparsers) == list(FLAGS)
        for name, (fmt, flags) in FLAGS.items():
            sp = subparsers[name]
            got = [(a.option_strings[-1], a.default, a.type)
                   for a in sp._actions if not COMMON & set(a.option_strings)]
            assert got == flags, name
            assert sp.get_default("format") == fmt, name

    @pytest.mark.parametrize("command", list(REPORTS))
    def test_record_names_and_config_keys(self, command, tmp_path, capsys):
        flags, names, keys = REPORTS[command]
        main([command, *flags, "--format", "json", "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / f"{command}.json").read_text())
        assert [r["name"] for r in payload["records"]] == names
        assert list(payload["config"]) == keys
