import argparse
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc

import pytest

import ptgauge
from ptgauge import cli, verification
from ptgauge.cli import build_parser, main
from ptgauge.verification import COMMANDS, CartanParams, JcParams, \
    LtsParams, SpectrumMatrixParams, UsageError, _parse_complex, _parse_range


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

    def test_point_spectrum_defaults_find_a_conjugate_pair(self, tmp_path):
        """The default coupling has two decaying states, E = 1.5 -+ 1.32i,
        so its report reads the pairing branch."""
        assert main(["point-spectrum", "--out-dir", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "point-spectrum.json").read_text())[
            "config"]
        assert config["n_bound"] == 2
        assert config["classification"] == "conjugate_paired"

    @pytest.mark.parametrize("flag", ["--t11=2e-8i", "--t22=2e-8i",
                                      "--t12=1+1e-300i", "--t21=1+1e-300i"])
    def test_non_pt_point_spectrum_asserts_no_pairing(self, flag, tmp_path):
        """At a coupling that is not PT-symmetric the paper claims no
        conjugate pairing: the record is not asserted, the config says
        why, and the command exits 0."""
        assert main(["point-spectrum", flag, "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "point-spectrum.json").read_text())
        assert payload["config"]["pt_symmetric"] is False
        assert [r["name"] for r in payload["records"]] == [
            "point/domain_residuals"]

    def test_point_spectrum_without_bound_states_asserts_no_record(
            self, tmp_path):
        """With no bound state there is no domain residual to bound: no
        record is asserted, n_bound says why, and the command exits 0."""
        argv = ["point-spectrum", "--t11", "1", "--t12", "1i", "--t21=-1i",
                "--t22", "0", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        payload = json.loads((tmp_path / "point-spectrum.json").read_text())
        assert payload["config"]["n_bound"] == 0
        assert payload["records"] == []

    def test_point_spectrum_at_a_large_kappa(self, tmp_path):
        """t22 = -1e-13 gives a state at kappa = 4.5e6, whose traces are of
        that size: its domain residual, relative to them, reads rounding
        (2.1e-16; 6.6e-10 as an absolute residual), and the command exits 0."""
        assert main(["point-spectrum", "--t22=-1e-13",
                     "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "point-spectrum.json").read_text())
        assert payload["config"]["n_bound"] == 1
        domain = payload["records"][0]
        assert domain["name"] == "point/domain_residuals"
        assert float(domain["residual"]) <= 1e-15

    @pytest.mark.parametrize("flags", [
        ["--t11=-1e8"], ["--t11=1e8i"], ["--t22=-1e8"], ["--t22=-1e12"],
        ["--t12=1e12i", "--t21=-3i"], ["--t12=1e200i", "--t21=1e-200i"]])
    def test_point_spectrum_at_large_couplings(self, flags, tmp_path):
        """The domain residual is relative to the size of the terms of
        T Gamma_0 f, which cancel here: over |T Gamma_0 f| it read 2.0e-9 to
        1.0, and the command exited 1."""
        assert main(["point-spectrum", *flags, "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "point-spectrum.json").read_text())
        domain = payload["records"][0]
        assert domain["name"] == "point/domain_residuals"
        assert float(domain["residual"]) <= 1e-15

    @pytest.mark.parametrize("t22", ["1e5", "1e8"])
    def test_point_angle_at_a_large_t22(self, t22, tmp_path, capsys):
        """A small phi keeps its relative accuracy, so the defining relation
        holds to rounding (it read 2.3e-12 and 1.7e-9 through a fold of
        arctan2 by pi)."""
        code = main(["point-angle", "--t22", t22, "--out-dir", str(tmp_path)])
        assert code == 0
        assert "[PASS] point/defining_relation" in capsys.readouterr().out

    @pytest.mark.parametrize("t21", ["1e8i", "1e100i"])
    def test_point_angle_at_a_large_t21(self, t21, tmp_path):
        """point/matrix_relation is relative to max(1, |T|_max)^2, the scale
        of its rounding: absolute, it read 3.5e-9 at 1e8i and 1e84 at
        1e100i, against 1e-12."""
        code = main(["point-angle", "--t21", t21, "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "point-angle.json").read_text())
        (rec,) = [r for r in payload["records"]
                  if r["name"] == "point/matrix_relation"]
        assert float(rec["residual"]) <= 1e-15

    def test_check_failure_exits_one(self, tmp_path, capsys):
        # at h = 0.8 the weak form reads r1 about 1e-2, over its bound 1e-8
        code = main(["gauge-scalar", "--h", "0.8", "--box", "6.0",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "[FAIL] pseudo_hermiticity/r1" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ptgauge")

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

    @pytest.mark.parametrize("argv, message", [
        (["lts-check", "--samples", "many"],
         "argument --samples: invalid int value: 'many'"),
        (["jc", "--format", "xml"], "argument --format: invalid choice: "
         "'xml' (choose from 'json', 'csv', 'both')"),
        (["lts-check", "--bogus", "3"], "unrecognized arguments: --bogus 3"),
        ([], "the following arguments are required: command"),
    ])
    def test_argparse_error_is_one_line(self, argv, message, capsys):
        """argparse's message alone, without its usage block."""
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"usage error: {message}\n")


class TestConfigFile:
    def test_values_applied(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t11 = -2\nt12 = 0i\n# comment line\nt21 = 0i\nt22 = 0\n")
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

    @pytest.mark.parametrize("value, message", [
        ("many", "argument --samples: invalid int value: 'many'"),
        ("", "argument --samples: invalid int value: ''"),
    ])
    def test_typed_value_error_names_its_line(self, value, message, tmp_path,
                                              capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"p = 2\nsamples = {value}\n")
        assert main(["lts-check", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"usage error: {cfg}:2: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["samples = 5", "samples = many"])
    def test_bad_explicit_flag_not_blamed_on_the_file(self, line, tmp_path,
                                                      capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["lts-check", "--config", str(cfg), "--samples", "few",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == (
            "", "usage error: argument --samples: invalid int value: 'few'\n")

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert main(["point-angle",
                     "--config", str(tmp_path / "absent.cfg")]) == 2

    @pytest.mark.parametrize("key", ["n", "config", "help"])
    def test_key_must_be_a_whole_flag_name(self, key, tmp_path, capsys):
        """argparse would take --n for --n-max; a file's key is matched
        whole, and --config and --help are not among them."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# jc\n{key} = 3\n")
        assert main(["jc", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"usage error: {cfg}:2: unknown parameter {key!r} for command 'jc'\n")
        assert not (tmp_path / "out").exists()

    def test_invalid_choice_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        assert main(["jc", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "--format" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_dir_and_format_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out-dir = {tmp_path / 'cfg'}\nformat = csv\nt11 = -2\n")
        assert main(["point-spectrum", "--config", str(cfg)]) == 0
        assert [p.name for p in (tmp_path / "cfg").iterdir()] == [
            "point-spectrum_bound_states.csv"]


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

    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_unusable_out_dir_exits_two_before_any_check(
            self, via_env, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(cli, "run", lambda *a: pytest.fail("a check ran"))
        argv = ["point-angle"]
        if via_env:
            monkeypatch.setenv("PTGAUGE_REPORT_DIR", str(blocker / "sub"))
        else:
            argv += ["--out-dir", str(blocker / "sub")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert str(blocker / "sub") in err

    def test_unwritable_report_exits_two(self, tmp_path, capsys):
        (tmp_path / "point-angle.json").mkdir()
        assert main(["point-angle", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot write report to")
        assert err.count("\n") == 1

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
    # 10 nodes: the weak form's test vectors vanish on 5 at each edge
    ["gauge-scalar", "--h", "1.6"],
    ["gauge-scalar", "--box", "5", "--h", "1"],
    ["spectrum-matrix", "--h", "1.6", "--n-low", "4"],
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
    ["spectrum-matrix", "--n-low", "1000"],     # over the dimension, 640
    ["spectrum-matrix", "--gauge-alpha", "inf"],
    ["spectrum-matrix", "--gauge-alpha", "1e20"],   # expm overflows
    ["spectrum-matrix", "--gauge-alpha", "1e18"],   # U loses unitarity
    # |alpha| h = 5e6 and 4.5e6, past the pi/2 the grid resolves
    ["spectrum-matrix", "--gauge-alpha", "1e8"],
    ["jc", "--h", "100"],
    ["jc", "--h", "0"],
    ["jc", "--h", "3"],                      # box too small for n_max
    ["jc", "--n-max", "1"],
    ["jc", "--delta", "nan"],
    ["jc", "--alpha", "1e200"],              # a^2 in V(x) overflows
    ["jc", "--alpha", "1e8"],
    ["jc", "--delta", "1e308"],              # 2 delta in V(x) overflows
    ["point-angle", "--t11", "1i"],
    # a real part of t12 however small: clifford_angle would drop it
    ["point-angle", "--t12=-1e-13"],
    ["point-angle", "--t12", "nan"],
    # an entry over 1e150: a product of two in point/matrix_relation overflows
    ["point-angle", "--t21", "1e300i"],
    ["point-spectrum", "--t11", "nan"],
    ["point-spectrum", "--t22", "1e400"],
    # det T + 4 = inf - inf (point-angle: entries over 1e150)
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

    @pytest.mark.parametrize("argv", [
        ["spectrum-matrix", "--box", "1e300"],
        ["spectrum-matrix", "--box", "1e308", "--h", "0.9"],   # dim > 1e308
        ["gauge-scalar", "--box", "1e300"],
        ["cartan", "--p", "1" + "0" * 300],
        ["jc", "--n-max", "1" + "0" * 300],
        ["phase-diagram", "--t11-range=0:1:1" + "0" * 300],
    ], ids=lambda argv: " ".join(a[:12] for a in argv))
    def test_budget_message_gives_sizes_to_three_digits(self, argv, tmp_path,
                                                        capsys):
        """Sizes of any magnitude, past a float's range too, read as one
        short line: 3 significant digits from 10^12 up."""
        code = main(argv + ["--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and len(err) < 200
        assert "array budget" in err and "e+" in err

    def test_budget_message_shows_the_count_over_the_budget(self, tmp_path,
                                                            capsys):
        """At m = 4730 one batch's stack takes 1073899200 bytes, 0.015 %
        over the 1073741824-byte budget; to 3 digits both read 1.07e+9."""
        code = main(["lts-check", "--p", "2365", "--q", "2365",
                     "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and len(err.splitlines()) == 1
        assert ("would allocate 1073899200 bytes, over the 1073741824-byte "
                "array budget") in err

    def test_budget_sizes_the_sparse_routes(self):
        """spectrum-matrix and jc no longer densify their grid builds, so
        grids whose dense matrix would be over the budget are accepted."""
        assert 2 * SpectrumMatrixParams(h=0.003).grid().size == 10668
        assert 2 * JcParams(h=0.004).grid().size > 8192
        with pytest.raises(UsageError, match="Arnoldi basis"):
            JcParams(h=2e-4)

    def test_budget_sizes_the_csr_fock_build(self):
        """jc's Fock builds are CSR and its eig takes the band driver, so
        n_max = 3000 (dimensions 6002 and 9002, whose dense matrices take
        1.9 GB together) runs in a few MB: about 6 MB traced."""
        params = JcParams(n_max=3000)
        tracemalloc.start()
        try:
            rep = verification.run("jc", params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 50 * 2**20

    def test_budget_sizes_one_batch_stack(self):
        """cartan and lts-check size one batch's stack of element triples,
        3 m^2 complex entries once a batch holds one element: 1073445168
        bytes at m = 4729, 1073899200 at m = 4730, over the 1 GiB budget.
        Constructing the params allocates nothing."""
        tracemalloc.start()
        try:
            for params in (CartanParams, LtsParams):
                params(p=100, q=100)
                params(p=2365, q=2364)
                with pytest.raises(UsageError, match="one batch's stack of 3 "
                                   "4730 x 4730 complex matrices"):
                    params(p=2365, q=2365)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_n_low_bounded_by_the_dimension(self):
        dim = 2 * SpectrumMatrixParams().grid().size
        assert dim == 640
        SpectrumMatrixParams(n_low=dim)
        with pytest.raises(UsageError, match="operator dimension"):
            SpectrumMatrixParams(n_low=dim + 1)

    def test_config_file_value_checked(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h = 100\n")
        assert main(["jc", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("usage error:")


# Every subcommand's flags as (flag, default, type), and its default format.
COMMON = {"-h", "--config", "--out-dir", "--format"}
POINT = [("--t11", "-2", None), ("--t12", "1i", None),
         ("--t21", "4i", None), ("--t22", "1", None)]
FLAGS = {
    "gauge-scalar": ("json", [("--alpha", 1.0, float), ("--beta", 0.0, float),
                              ("--box", 8.0, float), ("--h", 0.00625, float)]),
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
        ["alpha", "beta", "box", "h", "norm_H", "r1_abs", "r2_abs"]),
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
        ["alpha", "delta", "h", "n_max"]),
    "point-angle": ([], [
        "point/defining_relation", "point/gamma_transform",
        "point/matrix_relation"],
        ["degenerate", "phi", "t11", "t12", "t21", "t22"]),
    "point-spectrum": (["--t11=-2"], [
        "point/domain_residuals", "point/conjugate_pairing"],
        ["classification", "n_bound", "pt_symmetric", "t11", "t12", "t21",
         "t22"]),
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

    @pytest.mark.parametrize("command", list(REPORTS))
    def test_one_time_line_per_record_function(self, command, tmp_path,
                                               capsys):
        """verification.run times each record function of the command, and
        the times reach stderr only."""
        # gauge-scalar fails its r1 record on this coarse grid
        assert main([command, *REPORTS[command][0], "--format", "both",
                     "--out-dir", str(tmp_path)]) in (0, 1)
        out, err = capsys.readouterr()
        timed = [line.split()[1] for line in err.splitlines()
                 if line.startswith("time ")]
        assert timed == [f.__name__ + ":" for f in COMMANDS[command].records]
        assert timed == ["run_" + command.replace("-", "_") + ":"]
        assert "time " not in out
        for path in tmp_path.iterdir():
            text = path.read_text()
            assert "wall" not in text and "timings" not in text


def test_verify_all_runs_the_all_checks_list(tmp_path, capsys):
    """verify-all runs verification.ALL_CHECKS itself, so a check replaced
    in that list in place (as perfbench's tracer does) is the one run."""
    checks = verification.ALL_CHECKS
    assert COMMANDS["verify-all"].records is checks
    calls = []

    def check_stub(rep, cfg):
        calls.append(cfg)
        rep.add("stub/failed", 1.0, 0.5)

    saved = list(checks)
    checks[-1] = check_stub
    try:
        code = main(["verify-all", "--out-dir", str(tmp_path)])
    finally:
        checks[:] = saved
    assert code == 1 and calls == [verification.VerifyConfig()]
    err = capsys.readouterr().err
    assert err.count("time ") == len(saved) and "time check_stub:" in err


class TestPackage:
    def test_import_loads_no_numpy_or_scipy(self):
        """The package imports none of its modules, so a bare import loads
        neither numpy nor scipy."""
        src = os.path.dirname(os.path.dirname(ptgauge.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, ptgauge; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('numpy', 'scipy')))"],
            env=env, check=True, capture_output=True, text=True).stdout
        assert out == "[]\n"

    def test_every_module_imports_from_the_package_and_is_mapped(self):
        """`from ptgauge import m` works for every module, and the module
        map of the package docstring names each one."""
        names = [m.name for m in pkgutil.iter_modules(ptgauge.__path__)]
        assert len(names) == 10
        mapped = [line.split()[0] for line in ptgauge.__doc__.splitlines()
                  if line.split() and line.split()[0] in names]
        assert sorted(mapped) == sorted(names)
        for name in names:
            module = __import__("ptgauge", fromlist=[name])
            assert getattr(module, name).__name__ == f"ptgauge.{name}"
