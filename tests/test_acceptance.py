"""Acceptance suite: eleven numbered criteria, one printed line each.

Criteria 1 to 10 are evaluated from a single in-process run of the full
verification suite (session-scoped, about 20 s); each test selects the
records belonging to its criterion and requires every one to pass at its
stated tolerance.  Criterion 11 exercises the command-line entry point
twice and byte-compares the emitted reports.
"""

import dataclasses
import time

import numpy as np
import pytest

from ptgauge import cartan, linalg, pointint, verification
from ptgauge.cli import main
from ptgauge.reporting import Report, emit
from ptgauge.verification import (
    LtsParams,
    VerifyConfig,
    check_cartan_lts,
    check_clifford_relations,
    check_closed_form_exponentials,
    check_matrix_schrodinger,
    check_parity_metric_relations,
    check_point_angle,
    run_verify_all,
)


@pytest.fixture(scope="session")
def report():
    return run_verify_all(VerifyConfig())


def _select(report, prefixes, exclude=()):
    recs = [r for r in report.records
            if any(r.name.startswith(p) for p in prefixes)
            and not any(r.name.startswith(e) for e in exclude)]
    assert recs, f"no records found for prefixes {prefixes}"
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
    recs = _select(report, ["clifford/"])
    _assert_all(1, "exact Clifford relations, span dimension 4", recs)
    assert elapsed < 1.0, f"clifford check took {elapsed:.2f} s"


def test_criterion_02_rotated_involution(report):
    recs = _select(report, ["rotated_involution/"])
    _assert_all(2, "rotated involution squares to I and is Hermitian "
                   "to 1e-12 over 20 angles", recs)


def test_criterion_03_abelian_gauge(report):
    recs = _select(report, ["abelian/"])
    _assert_all(3, "scalar gauge closed forms, polar identities, "
                   "weak pseudo-Hermiticity r1 <= 1e-8 with O(1) "
                   "naive-parity residual", recs)


def test_criterion_04_cartan_lts(report):
    recs = _select(report, ["cartan/ternary_closure", "cartan/binary_escape",
                            "cartan/dim_"])
    _assert_all(4, "ternary closure to 1e-12 over 1000 triples per "
                   "signature, binary escape, dimension rank counts", recs)


def test_criterion_05_closed_form_exponentials(report):
    recs = _select(report, ["cartan/closed_form_exponentials",
                            "cartan/so2_rotation_example",
                            "cartan/boost_example"])
    _assert_all(5, "closed-form exponentials match expm to 1e-10 "
                   "including both 2x2 worked examples", recs)


def test_criterion_06_parity_metric_relations(report):
    recs = _select(report, ["cartan/parity_metric_relations"])
    _assert_all(6, "parity and metric identities to 1e-10 over 500 "
                   "random draws", recs)


def test_criterion_07_matrix_schrodinger(report):
    recs = _select(report, ["matrix/"])
    _assert_all(7, "dual-build matrix spectra to 5e-2 at h = 0.05, "
                   "conjugate pairing, convergence order >= 1.8", recs)
    order = report.config["matrix_convergence_order"]
    print(f"       observed convergence order: {order:.2f}")


def test_criterion_08_jaynes_cummings(report):
    recs = _select(report, ["jc/"])
    _assert_all(8, "decoupled ladder spectrum exact, grid vs Fock "
                   "lowest six to 5e-2, truncation shift < 1e-6", recs)


def test_criterion_09_clifford_angle(report):
    recs = _select(report, ["point/phi_", "point/matrix_relation"])
    _assert_all(9, "rotation angle solution, reference value, matrix "
                   "relation at solved angle and failure at wrong angle",
                recs)


def test_criterion_10_point_spectra(report):
    recs = _select(report, ["point/delta_well", "point/sweep"])
    _assert_all(10, "delta-well bound state to 1e-12 with independent "
                    "grid oracle to 1e-3, sweep conjugate pairing", recs)


VERIFY_ALL_RECORDS = [
    "clifford/anticommutation_and_squares", "clifford/span_dim_4",
    "rotated_involution/squares_to_identity", "rotated_involution/hermitian",
    "abelian/Uh_closed_form_beta", "abelian/abs_eta_closed_form_beta",
    "abelian/J_equals_parity_beta", "abelian/Uu_closed_form_alpha",
    "abelian/abs_eta_identity_alpha", "abelian/J_involution_alpha",
    "abelian/J_differs_from_parity_alpha", "abelian/polar_identities_beta",
    "abelian/polar_identities_alpha", "abelian/pseudo_hermiticity_r1_alpha",
    "abelian/naive_parity_residual_large_alpha",
    "abelian/weighted_form_identity_alpha",
    "abelian/pseudo_hermiticity_r1_beta",
    "abelian/naive_parity_residual_large_beta",
    "abelian/weighted_form_identity_beta",
    "cartan/ternary_closure_p2q1", "cartan/binary_escape_p2q1",
    "cartan/dim_k_pq_p2q1", "cartan/dim_p_p2q1",
    "cartan/ternary_closure_p2q2", "cartan/binary_escape_p2q2",
    "cartan/dim_k_pq_p2q2", "cartan/dim_p_p2q2",
    "cartan/ternary_closure_p3q1", "cartan/binary_escape_p3q1",
    "cartan/dim_k_pq_p3q1", "cartan/dim_p_p3q1",
    "cartan/closed_form_exponentials", "cartan/so2_rotation_example",
    "cartan/boost_example", "cartan/parity_metric_relations_random",
    "cartan/parity_metric_relations_m2_examples",
    "matrix/symmetry_audit", "matrix/spectral_match_h0.05",
    "matrix/pairing_Hg", "matrix/pairing_H",
    "matrix/parity_pseudo_hermiticity", "matrix/similarity_spectrum_exact",
    "matrix/lowest_modes_vs_dense_h0.05", "matrix/convergence_order_ge_1.8",
    "jc/decoupled_spectrum_exact", "jc/pt_symmetry", "jc/grid_vs_fock_lowest6",
    "jc/truncation_convergence",
    "point/phi_zero_when_t12_equals_t21", "point/phi_reference_value",
    "point/phi_defining_relation_residual",
    "point/matrix_relation_at_solved_phi",
    "point/matrix_relation_fails_at_wrong_phi",
    "point/delta_well_single_state", "point/delta_well_energy",
    "point/delta_well_domain_residual", "point/delta_well_grid_oracle",
    "point/sweep_all_rows_paired", "point/sweep_phi_zero_slice",
]


def test_verify_all_record_names_and_config_keys(report):
    assert [r.name for r in report.records] == VERIFY_ALL_RECORDS
    assert sorted(report.config) == ["jc_sign_convention",
                                     "matrix_convergence_order", "seed"]


def _record(rep, name):
    return next(r for r in rep.records if r.name == name)


def test_nan_binary_escape_fails_its_record(monkeypatch):
    lts_check = cartan.lts_check
    monkeypatch.setattr(cartan, "lts_check", lambda *a: dataclasses.replace(
        lts_check(*a), binary_escape=np.nan))
    monkeypatch.setattr(LtsParams, "samples", 2)   # closure is not under test
    rep = Report(command="nan", config={})
    check_cartan_lts(rep, VerifyConfig())
    assert not _record(rep, "cartan/binary_escape_p2q1").passed


@pytest.mark.parametrize("seed", [8, 11, 12])
def test_binary_escape_passes_at_small_bracket_seeds(seed):
    """At these seeds some draw of v lies near the kernel of the singular
    3 x 3 u, so |[a_k, a_p]| is small; relative to the bracket's own size
    the escape is still 2."""
    rep = Report(command="seed", config={})
    check_cartan_lts(rep, VerifyConfig(seed=seed))
    for name in ("p2q1", "p2q2", "p3q1"):
        assert _record(rep, f"cartan/binary_escape_{name}").passed, name


def test_parity_metric_relations_pass_at_seed_34():
    """At this seed the worst absolute residual reads 1.4e-10, over the
    1e-10 bound: rounding in U_p(+-x) grows like e^{|c||x|}.  Relative to
    |U_p(x)|_max |U_p(-x)|_max it reads 1.3e-14."""
    rep = Report(command="seed", config={})
    check_parity_metric_relations(rep, VerifyConfig(seed=34))
    assert _record(rep, "cartan/parity_metric_relations_random").passed


SEEDED_CHECKS = (check_cartan_lts, check_closed_form_exponentials,
                 check_parity_metric_relations, check_point_angle)


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
    lowest mode for the next one."""
    monkeypatch.setattr(verification, "lowest_modes",
                        lambda M, k: linalg.lowest_modes(M, k + 1)[1:])
    rep = Report(command="wrong-mode", config={})
    check_matrix_schrodinger(rep, VerifyConfig())
    assert not _record(rep, "matrix/lowest_modes_vs_dense_h0.05").passed
    assert _record(rep, "matrix/convergence_order_ge_1.8").passed


def test_nan_perturbed_relation_fails_its_record(monkeypatch):
    monkeypatch.setattr(pointint, "_matrix_relation_residual",
                        lambda *a: np.nan)
    rep = Report(command="nan", config={})
    check_point_angle(rep, VerifyConfig())
    assert not _record(rep, "point/matrix_relation_fails_at_wrong_phi").passed


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
