"""Acceptance suite: eleven numbered criteria, one printed line each.

Criteria 1 to 10 are evaluated from a single in-process run of the full
verification suite (session-scoped, about 20 s); each test selects the
records belonging to its criterion and requires every one to pass at its
stated tolerance.  Criterion 11 exercises the command-line entry point
twice and byte-compares the emitted reports.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from ptgauge import abelian, cartan, jaynes, linalg, pointint, schrodinger, \
    verification
from ptgauge.cli import main
from ptgauge.reporting import Report, emit
from ptgauge.verification import (
    CartanParams,
    LtsParams,
    VerifyConfig,
    check_cartan_lts,
    check_clifford_relations,
    check_closed_form_exponentials,
    check_jaynes_cummings,
    check_matrix_schrodinger,
    check_point_angle,
    run,
)


@pytest.fixture(scope="session")
def report():
    return run("verify-all", VerifyConfig())


# the record-name prefixes of criteria 1 to 10; every verify-all record
# falls under exactly one
CRITERIA = {
    1: ["clifford/"],
    2: ["rotated_involution/"],
    3: ["abelian/", "factorization/", "pseudo_hermiticity/"],
    4: ["lts/", "cartan/ternary_closure", "cartan/binary_escape",
        "cartan/dim_", "cartan/wick_membership"],
    5: ["cartan/closed_form_exponentials", "cartan/so2_rotation_example",
        "cartan/boost_example", "cartan/group_polar_structure"],
    6: ["cartan/parity_metric_relations"],
    7: ["matrix/"],
    8: ["jc/"],
    9: ["point/phi_", "point/matrix_relation", "point/defining_relation",
        "point/gamma_transform"],
    10: ["point/delta_well", "point/domain_residuals",
         "point/conjugate_pairing", "point/sweep", "sweep/"],
}


def _criteria(name):
    return [c for c, prefixes in CRITERIA.items()
            if any(name.startswith(p) for p in prefixes)]


def _select(report, criterion):
    recs = [r for r in report.records if criterion in _criteria(r.name)]
    assert recs, f"no records found for criterion {criterion}"
    return recs


def _assert_all(criterion, label, recs):
    failed = [r for r in recs if not r.passed]
    status = "FAIL" if failed else "PASS"
    print(f"[{status}] criterion {criterion}: {label} "
          f"({len(recs)} records)")
    assert not failed, [
        f"{r.name}: residual {r.residual:.3e} > tol {r.tolerance:.3e}"
        for r in failed]


def test_criterion_01_clifford_relations(report):
    t0 = time.perf_counter()
    scratch = Report(command="timing", config={})
    check_clifford_relations(scratch, VerifyConfig())
    elapsed = time.perf_counter() - t0
    recs = _select(report, 1)
    _assert_all(1, "exact Clifford relations, span dimension 4", recs)
    assert elapsed < 1.0, f"clifford check took {elapsed:.2f} s"


def test_criterion_02_rotated_involution(report):
    recs = _select(report, 2)
    _assert_all(2, "rotated involution squares to I and is Hermitian "
                   "to 1e-12 over 20 angles", recs)


def test_criterion_03_abelian_gauge(report):
    recs = _select(report, 3)
    _assert_all(3, "scalar gauge closed forms, factorization and polar "
                   "identities, weak pseudo-Hermiticity r1 <= 1e-8 with "
                   "O(1) naive-parity residual", recs)


def test_criterion_04_cartan_lts(report):
    recs = _select(report, 4)
    _assert_all(4, "ternary closure to 1e-12 and binary escape over "
                   "every triple and pair of a spanning set per signature, "
                   "dimension rank counts, Wick membership of sampled "
                   "elements", recs)


def test_criterion_05_closed_form_exponentials(report):
    recs = _select(report, 5)
    _assert_all(5, "closed-form exponentials match expm to 1e-10 "
                   "including both 2x2 worked examples, group polar "
                   "structure of their product", recs)


def test_criterion_06_parity_metric_relations(report):
    recs = _select(report, 6)
    _assert_all(6, "parity and metric identities to 1e-10 over 250 "
                   "random draws at four signatures and two 2x2 worked "
                   "examples", recs)


def test_criterion_07_matrix_schrodinger(report):
    recs = _select(report, 7)
    _assert_all(7, "dual-build matrix spectra to 5e-2 at h = 0.05, "
                   "conjugate pairing, convergence order >= 1.8", recs)
    order = report.config["matrix_convergence_order"]
    print(f"       observed convergence order: {order:.2f}")


def test_criterion_08_jaynes_cummings(report):
    recs = _select(report, 8)
    _assert_all(8, "decoupled ladder spectrum exact, grid vs Fock "
                   "lowest six to 5e-2, truncation shift < 1e-6", recs)


def test_criterion_09_clifford_angle(report):
    recs = _select(report, 9)
    _assert_all(9, "rotation angle solution, reference value, boundary "
                   "transform, matrix relation at solved angle and failure "
                   "at wrong angle", recs)


def test_criterion_10_point_spectra(report):
    recs = _select(report, 10)
    _assert_all(10, "delta-well bound state to 1e-12 with independent "
                    "grid oracle to 1e-3, its domain condition, sweep "
                    "conjugate pairing", recs)


def test_every_record_falls_under_exactly_one_criterion(report):
    assert {r.name: _criteria(r.name) for r in report.records
            if len(_criteria(r.name)) != 1} == {}


VERIFY_ALL_RECORDS = [
    "clifford/anticommutation_and_squares", "clifford/span_dim_4",
    "rotated_involution/squares_to_identity", "rotated_involution/hermitian",
    "abelian/Uh_closed_form_beta", "abelian/abs_eta_closed_form_beta",
    "abelian/J_equals_parity_beta", "abelian/Uu_closed_form_alpha",
    "abelian/abs_eta_identity_alpha", "abelian/J_involution_alpha",
    "abelian/J_differs_from_parity_alpha", "abelian/polar_identities_beta",
    "abelian/polar_identities_alpha",
    "factorization/J_hermitian", "factorization/J_involution",
    "factorization/P_RQ_anticommute", "factorization/P_U",
    "factorization/P_Uh", "factorization/P_Uu", "factorization/polar",
    "factorization/sign_split", "pseudo_hermiticity/r1",
    "pseudo_hermiticity/weighted_form",
    "pseudo_hermiticity/naive_parity_r2_large",
    "abelian/pseudo_hermiticity_r1_beta",
    "abelian/naive_parity_residual_large_beta",
    "abelian/weighted_form_identity_beta",
    "lts/ternary_closure", "lts/binary_bracket_escapes",
    "cartan/dim_k_pq_p2q1", "cartan/dim_p_p2q1",
    "cartan/ternary_closure_p2q2", "cartan/binary_escape_p2q2",
    "cartan/dim_k_pq_p2q2", "cartan/dim_p_p2q2",
    "cartan/ternary_closure_p3q1", "cartan/binary_escape_p3q1",
    "cartan/dim_k_pq_p3q1", "cartan/dim_p_p3q1",
    *[f"cartan/{name}{suffix}" for suffix in ("", "_p1q1", "_p2q2", "_p3q1")
      for name in ("wick_membership", "closed_form_exponentials",
                   "parity_metric_relations", "group_polar_structure")],
    "cartan/so2_rotation_example", "cartan/boost_example",
    "cartan/parity_metric_relations_m2_examples",
    "matrix/symmetry_audit", "matrix/spectral_match",
    "matrix/pairing_Hg", "matrix/pairing_H",
    "matrix/parity_pseudo_hermiticity", "matrix/similarity_spectrum_exact",
    "matrix/lowest_modes_vs_dense_h0.05", "matrix/convergence_order_ge_1.8",
    "jc/decoupled_spectrum_exact", "jc/pt_symmetry", "jc/grid_vs_fock",
    "jc/truncation_convergence",
    "point/phi_zero_when_t12_equals_t21", "point/defining_relation",
    "point/gamma_transform", "point/matrix_relation",
    "point/phi_reference_value", "point/matrix_relation_at_solved_phi",
    "point/matrix_relation_fails_at_wrong_phi",
    "point/domain_residuals", "point/conjugate_pairing",
    "point/delta_well_single_state", "point/delta_well_energy",
    "point/delta_well_grid_oracle",
    "sweep/conjugate_pairing", "point/sweep_phi_zero_slice",
]


def test_verify_all_record_names_and_config_keys(report):
    assert [r.name for r in report.records] == VERIFY_ALL_RECORDS
    assert sorted(report.config) == [
        "classification", "degenerate", "escaping_pairs",
        "matrix_convergence_order", "n_bound", "norm_H", "phi", "pt_symmetric",
        "r1_abs", "r2_abs", "seed"]
    assert [t.name for t in report.tables] == [
        "spectrum", "levels", "bound_states", "phase_diagram"]


# each subcommand's record function, at the case verify-all checks
SHARED = {
    "gauge-scalar": verification.GaugeScalarParams(),
    "spectrum-matrix": verification.SpectrumMatrixParams(),
    "jc": verification.JcParams(),
    "point-angle": verification.PointAngleParams(t11="1", t12="1i",
                                                 t21="-1i", t22="0"),
    "point-spectrum": verification.CouplingParams(t11="-2", t12="0",
                                                  t21="0", t22="0"),
    "phase-diagram": verification.PhaseDiagramParams(),
    "lts-check": LtsParams(),
    "cartan": CartanParams(seed=VerifyConfig.seed),
}


def _bits(rec):
    return rec.name, rec.residual.hex(), rec.tolerance.hex()


def test_subcommands_share_their_records_with_verify_all(report, tmp_path):
    """Each of the eight subcommands, at verify-all's case, reports records
    that verify-all reports bit for bit, writes the same table bytes, and
    computes the same config values: one code path and one name each."""
    assert sorted(SHARED) == sorted(set(verification.COMMANDS) - {"verify-all"})
    suite = {r.name: _bits(r) for r in report.records}
    emit(report, "csv", str(tmp_path / "suite"))
    for name, params in SHARED.items():
        rep = run(name, params)
        assert rep.records, name
        assert [suite.get(r.name) for r in rep.records] == [
            _bits(r) for r in rep.records], name
        for key in rep.config.keys() - asdict(params).keys():
            assert repr(report.config[key]) == repr(rep.config[key]), key
        emit(rep, "csv", str(tmp_path / name))
        for t in rep.tables:
            csv = (tmp_path / name / f"{name}_{t.name}.csv").read_bytes()
            assert csv == (tmp_path / "suite" / f"verify-all_{t.name}.csv"
                           ).read_bytes(), t.name


def _record(rep, name):
    return next(r for r in rep.records if r.name == name)


def test_nan_sign_operator_fails_the_clifford_records(monkeypatch):
    """A NaN entry in R ends in two failing records, not in LinAlgError
    from the rank of the span."""
    real = verification.grid_operator

    def grid_operator(grid, kind):
        A = real(grid, kind)
        if kind == "sign":
            A = A.copy()
            A.data[0] = np.nan
        return A

    monkeypatch.setattr(verification, "grid_operator", grid_operator)
    rep = Report(command="nan", config={})
    check_clifford_relations(rep, VerifyConfig())
    assert np.isnan(_record(rep, "clifford/anticommutation_and_squares")
                    .residual)
    assert [r.passed for r in rep.records] == [False, False]


def test_nan_binary_escape_fails_its_record(monkeypatch):
    monkeypatch.setattr(cartan, "membership_residual",
                        lambda X, sig: np.full(np.shape(X)[:-2], np.nan))
    out = cartan.structure_check(cartan.ThetaSignature(2, 1))
    assert np.isnan(out.min_escape_ratio) and out.escaping_pairs == 0
    rep = Report(command="nan", config={})
    check_cartan_lts(rep, VerifyConfig())
    assert not _record(rep, "lts/binary_bracket_escapes").passed
    assert not _record(rep, "cartan/binary_escape_p2q2").passed


def test_no_nonzero_bracket_fails_the_escape_record(monkeypatch):
    """A kernel that finds no nonzero bracket, as at signature (1, 1),
    where one unit element spans the off-diagonal blocks, fails the
    escape record: its smallest ratio over no bracket is inf."""
    real = cartan.structure_check
    monkeypatch.setattr(cartan, "structure_check",
                        lambda sig: real(cartan.ThetaSignature(1, 1)))
    rep = run("lts-check", LtsParams())
    assert rep.config["escaping_pairs"] == 0
    assert [r.passed for r in rep.records] == [True, False]


def test_wrong_theta_fails_the_closure_records(monkeypatch):
    """Membership judged with one sign of Theta flipped in `mask * X`, the
    elements still built with the true one, fails the closure records and
    the Wick membership records: the triples and the sampled elements of
    g_Theta have nonzero entries in the flipped row and column.  (Flipping
    it everywhere builds another Lie triple system.)"""
    real = cartan.membership_residual

    def wrong_theta(X, sig):
        s = sig.signs.copy()
        s[-1] = -s[-1]
        return real(X, SimpleNamespace(mask=np.outer(s, s)))

    monkeypatch.setattr(cartan, "membership_residual", wrong_theta)
    rep = Report(command="wrong-theta", config={})
    check_cartan_lts(rep, VerifyConfig())
    check_closed_form_exponentials(rep, VerifyConfig())
    wick = [r for r in rep.records
            if r.name.startswith("cartan/wick_membership")]
    assert len(wick) == 4
    for r in wick + [_record(rep, name) for name in (
            "lts/ternary_closure", "cartan/ternary_closure_p2q2",
            "cartan/ternary_closure_p3q1")]:
        assert not r.passed, r.name


def test_cartan_lts_records_do_not_depend_on_the_seed():
    """The Lie-triple records are exhaustive over unit draws, so no seed
    reaches them: seeds 0 and 3 give the same bits and config."""
    runs = []
    for seed in (0, 3):
        rep = Report(command="seed", config={})
        check_cartan_lts(rep, VerifyConfig(seed=seed))
        runs.append(([_bits(r) for r in rep.records], rep.config))
    assert runs[0] == runs[1]


def test_parity_metric_relations_pass_at_seed_34():
    """On 500 draws at (2,1), x in [-2, 2], from seed 34 + 2, the worst
    absolute residual reads 1.4e-10, over the 1e-10 bound: rounding in
    U_p(+-x) grows like e^{|c||x|}.  Relative to |U_p(x)|_max |U_p(-x)|_max
    it reads 1.3e-14."""
    el, x = verification._elements_and_x(
        cartan.ThetaSignature(2, 1), np.random.default_rng(34 + 2), 500, 2.0)
    assert np.max(cartan.parity_relations_check(el, x).max_residual) <= 1e-10


SEEDED_CHECKS = (check_closed_form_exponentials, check_point_angle)


def test_sampled_checks_pass_at_seeds_0_to_59():
    """Every record of the seed-dependent checks passes at seeds 0-59, not
    only at the default seed (a few seconds)."""
    failed = []
    for seed in range(60):
        rep = Report(command="seeds", config={})
        for check in SEEDED_CHECKS:
            check(rep, VerifyConfig(seed=seed))
        failed += [f"seed {seed}: {r.name} residual {r.residual:.3e} > "
                   f"tol {r.tolerance:.3e}" for r in rep.records if not r.passed]
    assert not failed, failed


def test_verify_all_logs_to_stderr_only(report, tmp_path, capsys):
    """verify-all writes each check's wall time and the tightest records
    to stderr; its report files hold the bytes of the in-memory run's, and
    standard output has neither."""
    out_dir, ref_dir = tmp_path / "cli", tmp_path / "ref"
    assert main(["verify-all", "--out-dir", str(out_dir)]) == 0
    captured = capsys.readouterr()
    for fmt in ("json", "csv"):
        emit(report, fmt, str(ref_dir))
    names = sorted(p.name for p in ref_dir.iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == names
    for name in names:
        assert (out_dir / name).read_bytes() == (ref_dir / name).read_bytes()
    err = captured.err.splitlines()
    timed = [line.split()[1].rstrip(":") for line in err
             if line.startswith("time ")]
    assert timed == [c.__name__ for c in verification.ALL_CHECKS]
    assert len(timed) == 10
    assert sum(line.startswith("margin ") for line in err) == 5
    assert "time " not in captured.out and "margin " not in captured.out


def test_wrong_sparse_mode_fails_its_record(monkeypatch):
    """The dense coarse-grid spectra catch a sparse route that drops the
    lowest mode for the next one, in spectral_compare and on the fine grid."""
    monkeypatch.setattr(schrodinger, "lowest_modes",
                        lambda M, k: linalg.lowest_modes(M, k + 1)[1:])
    rep = Report(command="wrong-mode", config={})
    check_matrix_schrodinger(rep, VerifyConfig())
    assert not _record(rep, "matrix/lowest_modes_vs_dense_h0.05").passed
    assert _record(rep, "matrix/convergence_order_ge_1.8").passed


def test_nan_perturbed_relation_fails_its_record(monkeypatch):
    monkeypatch.setattr(pointint, "matrix_relation_residual",
                        lambda *a: np.nan)
    rep = Report(command="nan", config={})
    check_point_angle(rep, VerifyConfig())
    assert not _record(rep, "point/matrix_relation_fails_at_wrong_phi").passed


def test_no_delta_well_state_fails_its_records(monkeypatch, tmp_path):
    """A delta well without its one bound state fails the records that read
    it, and verify-all still writes its report."""
    monkeypatch.setattr(pointint, "bound_states", lambda T: [])
    assert main(["verify-all", "--out-dir", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "verify-all.json").read_text())
    failed = {r["name"] for r in payload["records"] if not r["pass"]}
    assert failed == {"point/delta_well_single_state", "point/delta_well_energy"}
    # no domain residual is asserted over no state, and the config says why
    assert "point/domain_residuals" not in {r["name"] for r in payload["records"]}
    assert payload["config"]["n_bound"] == 0


@pytest.mark.parametrize("argv, expected", [
    (["verify-all"], {"abelian/Uh_closed_form_beta",
                      "abelian/abs_eta_closed_form_beta",
                      "abelian/Uu_closed_form_alpha",
                      "abelian/polar_identities_beta",
                      "factorization/P_U", "factorization/P_Uu"}),
    (["gauge-scalar"], {"factorization/P_U", "factorization/P_Uu"}),
], ids=["verify-all", "gauge-scalar"])
def test_broken_quadrature_fails_its_records(argv, expected, monkeypatch,
                                             tmp_path):
    """A quadrature off by a factor 1 + 1e-6 on every other node breaks the
    factorization identities: the records that bound them fail, and the
    command still writes its report."""
    exact = abelian._cumulative_from_origin

    def broken(node_vals, value_at_0, grid):
        out = exact(node_vals, value_at_0, grid)
        out[::2] *= 1 + 1e-6
        return out

    monkeypatch.setattr(abelian, "_cumulative_from_origin", broken)
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    report = json.loads((tmp_path / f"{argv[0]}.json").read_text())
    assert {r["name"] for r in report["records"] if not r["pass"]} == expected


def test_criterion_11_verify_all_reproducible(tmp_path_factory, capsys):
    d1 = str(tmp_path_factory.mktemp("run1"))
    d2 = str(tmp_path_factory.mktemp("run2"))
    t0 = time.perf_counter()
    code1 = main(["verify-all", "--out-dir", d1])
    code2 = main(["verify-all", "--out-dir", d2])
    elapsed = time.perf_counter() - t0
    import pathlib
    f1 = sorted(pathlib.Path(d1).iterdir())
    f2 = sorted(pathlib.Path(d2).iterdir())
    same_names = [p.name for p in f1] == [p.name for p in f2]
    identical = same_names and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(f1, f2))
    ok = code1 == 0 and code2 == 0 and identical and elapsed < 300
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion 11: verify-all exits 0 and is "
              f"byte-reproducible ({elapsed:.1f} s for two runs)")
    assert code1 == 0 and code2 == 0
    assert [p.name for p in f1] == [p.name for p in f2]
    assert identical
    assert elapsed < 300


def test_verify_all_bytes_independent_of_blas_threads(tmp_path):
    """verify-all writes the same JSON and CSV bytes at 1 and 2 BLAS
    threads, each run in its own process (the thread count is read once,
    when numpy loads)."""
    src = os.path.dirname(os.path.dirname(pointint.__file__))
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        d = tmp_path / threads
        subprocess.run([sys.executable, "-m", "ptgauge.cli", "verify-all",
                        "--format", "both", "--out-dir", str(d)],
                       env=env, check=True, capture_output=True)
        out[threads] = {p.name: p.read_bytes() for p in d.iterdir()}
    assert sorted(out["1"]) == [
        "verify-all.json", "verify-all_bound_states.csv",
        "verify-all_levels.csv", "verify-all_phase_diagram.csv",
        "verify-all_spectrum.csv"]
    assert out["1"] == out["2"]


def test_coupling_on_d_fails_grid_vs_fock(monkeypatch):
    """The Fock model built with c on d and c^T on d^H, the convention the
    grid's V(x) does not expand to, is off by 0.74 at the default omega."""
    build_jc = jaynes.build_jc
    monkeypatch.setattr(jaynes, "build_jc",
                        lambda c, omega, n: build_jc(c.T, omega, n))
    rep = Report(command="c-on-d", config={})
    check_jaynes_cummings(rep, VerifyConfig())
    assert not _record(rep, "jc/grid_vs_fock").passed
    assert _record(rep, "jc/truncation_convergence").passed
