import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ptgauge import schrodinger
from ptgauge.cartan import ThetaSignature, make_element, random_element
from ptgauge.linalg import Grid1D, _entries, eig, match_spectra, \
    worst_residual
from ptgauge.reporting import CheckRecord
from ptgauge.schrodinger import (
    ConstantGauge,
    MatrixPotential,
    build_and_regauge,
    sample_audited_potential,
    spectral_compare,
    symmetry_audit,
)
from ptgauge.verification import SpectrumMatrixParams, VerifyConfig, \
    matrix_example, run

SIG = ThetaSignature(1, 1)
GRID = Grid1D.from_box(6.0, 0.1)


def _gauge(alpha=0.3):
    el = make_element(SIG, np.zeros((1, 1)), [[-alpha]], np.zeros((1, 1)))
    return ConstantGauge(A=el.gauge_potential)


def _well():
    return MatrixPotential(m=2, V=lambda x: x**2 * np.eye(2))


class TestAudit:
    def test_reference_pair_passes(self):
        out = symmetry_audit(_gauge(), _well(), SIG, GRID)
        assert worst_residual(out.values()) <= 1e-12

    @given(st.integers(min_value=0, max_value=5000),
           st.sampled_from([(1, 1), (2, 1), (2, 2)]))
    @settings(max_examples=30, deadline=None)
    def test_constructive_sampler_passes(self, seed, sig_pq):
        sig = ThetaSignature(*sig_pq)
        pot = sample_audited_potential(sig, np.random.default_rng(seed))
        gauge = ConstantGauge(A=np.zeros((sig.m, sig.m)))
        assert worst_residual(
            symmetry_audit(gauge, pot, sig, GRID).values()) <= 1e-12

    def test_broken_pt_detected(self):
        """Negative control: even imaginary diagonal part violates the PT
        condition Theta V*(-x) Theta = V(x)."""
        pot = MatrixPotential(
            m=2, V=lambda x: x**2 * np.eye(2) + 1j * np.exp(-x**2) * np.eye(2))
        out = symmetry_audit(_gauge(), pot, SIG, GRID)
        assert out["V_pt"] > 0.1

    def test_symmetric_gauge_detected(self):
        """A = sigma_1 violates the antisymmetry condition A = -A^T, so
        -i A is not in g_Theta."""
        A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        out = symmetry_audit(ConstantGauge(A=A), _well(), SIG, GRID)
        assert out["A_membership"] > 0.1

    def test_nan_potential_fails(self):
        """sample() rejects a non-finite V, so the NaN is injected past it."""
        class NanAtOneNode(MatrixPotential):
            def sample(self, x):
                out = super().sample(x)
                out[3, 0, 1] = np.nan
                return out

        out = symmetry_audit(_gauge(), NanAtOneNode(m=2, V=_well().V), SIG, GRID)
        assert np.isnan(out["V_pt"])
        assert not CheckRecord("matrix/symmetry_audit",
                               worst_residual(out.values()), 1e-12).passed

    def test_sample_rejects_nan_potential(self):
        pot = MatrixPotential(m=2, V=lambda x: np.where(x > 1, np.nan, x)
                              * np.eye(2))
        with pytest.raises(ValueError, match="non-finite"):
            pot.sample(GRID.nodes)

    @pytest.mark.parametrize("A", [np.zeros((2, 3)), np.zeros(2)],
                             ids=["2x3", "vector"])
    def test_gauge_must_be_square(self, A):
        with pytest.raises(ValueError, match="square matrix"):
            ConstantGauge(A=A)


class TestRegauge:
    def test_similarity_is_spectrally_exact(self):
        res = build_and_regauge(_gauge(), _well(), GRID)
        similar = schrodinger.similarity_transform(res, _gauge(), _well())
        assert match_spectra(eig(res.H_g), eig(similar)).max() <= 1e-8

    def test_zero_gauge_collapses_builds(self):
        gauge = ConstantGauge(A=np.zeros((2, 2)))
        res = build_and_regauge(gauge, _well(), GRID)
        assert abs(res.H_g - res.H).max() == 0.0

    def test_direct_build_agrees_on_low_modes(self):
        res = build_and_regauge(_gauge(), _well(), GRID)
        out = spectral_compare(res, SIG, n_low=10)
        assert out.max_match_dist <= 5e-2
        assert out.pairing_Hg != "unpaired"
        assert out.pairing_H != "unpaired"

    def test_parity_pseudo_hermiticity_weak_form(self):
        res = build_and_regauge(_gauge(), _well(), GRID)
        out = spectral_compare(res, SIG, n_low=8)
        assert out.parity_residual <= 1e-6

    def test_spectrum_real_in_unbroken_regime(self):
        res = build_and_regauge(_gauge(0.2), _well(), GRID)
        out = spectral_compare(res, SIG, n_low=8)
        assert out.pairing_Hg == "all_real"

    def test_default_example_is_hermitian_and_banded(self, monkeypatch):
        """verify-all's example: A = 0.3 sigma_2 and V = x^2 I are Hermitian,
        so U is unitary, all three operators are stored exactly Hermitian
        and eig solves each with the band driver, never densely.  -iA is
        real, so every e^{-iAx_j}, and with it every operator, is stored
        with no imaginary part, and its band reaches LAPACK as float64."""
        params = SpectrumMatrixParams()
        _, gauge, pot = matrix_example(params.gauge_alpha)
        res = build_and_regauge(gauge, pot, params.grid())
        bands, dtypes = [], set()
        banded = scipy.linalg.eigvals_banded

        def spy(band, **kw):
            bands.append(band.shape)
            dtypes.add(band.dtype)
            return banded(band, **kw)

        def refuse(*args, **kw):
            raise AssertionError("dense driver")

        monkeypatch.setattr(scipy.linalg, "eigvals_banded", spy)
        monkeypatch.setattr(scipy.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for M in (res.H_g, res.H,
                  schrodinger.similarity_transform(res, gauge, pot)):
            assert (M != M.conj().T).count_nonzero() == 0
            assert not M.data.imag.any() and _entries(M)[3].dtype == float
            eig(M)
        assert [n for _, n in bands] == [640] * 3
        assert dtypes == {np.dtype(float)}
        assert max(kd1 for kd1, _ in bands) <= 4   # block-tridiagonal, m = 2

    def test_non_unitary_gauge_transform_raises(self, monkeypatch):
        """Negative twin: a U = e^{-iAx} (from the eigh closed form of the
        Hermitian A) whose first column is scaled by 1 + 1e-8 is no longer
        unitary, and the skew part it leaves in U H_g U^{-1} is far above
        rounding, so similarity_transform raises instead of projecting it
        away.  So does the direct build, through its blocks U V U^{-1}, for
        a V that the skew does not leave Hermitian (V = x^2 I does).  (A
        uniform real scale would not do: it keeps both Hermitian.)"""
        exponentials = schrodinger._exponentials

        def skewed(A, x):
            E = exponentials(A, x)
            E[..., :, 0] *= 1 + 1e-8
            return E

        monkeypatch.setattr(schrodinger, "_exponentials", skewed)
        params = SpectrumMatrixParams()
        _, gauge, pot = matrix_example(params.gauge_alpha)
        res = build_and_regauge(gauge, pot, params.grid())
        with pytest.raises(RuntimeError, match="rounding bound"):
            schrodinger.similarity_transform(res, gauge, pot)
        tilted = MatrixPotential(m=2, V=lambda x: x**2 * np.eye(2)
                                 + np.array([[1.0, 0.5], [0.5, -1.0]]))
        with pytest.raises(RuntimeError, match="rounding bound"):
            build_and_regauge(gauge, tilted, params.grid())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_and_regauge(ConstantGauge(A=np.zeros((3, 3))), _well(), GRID)

    @pytest.mark.parametrize("build", [build_and_regauge,
                                       schrodinger.build_gauged])
    def test_potential_called_once_on_the_node_array(self, build):
        calls = []

        def V(x):
            calls.append(x.copy())
            return x**2 * np.eye(2)

        build(_gauge(), MatrixPotential(m=2, V=V), GRID)
        assert len(calls) == 1
        assert np.array_equal(calls[0], GRID.nodes[:, None, None])

    def test_one_exponential_stack_per_build(self, monkeypatch):
        """e^{iAx_j} is the reversed stack of e^{-iAx_j}.  A Hermitian A
        takes that stack from one eigh, with no expm call; a non-Hermitian
        A (a random g_Theta element) from one expm call on the n x m x m
        stack."""
        calls = []
        expm = schrodinger.expm
        monkeypatch.setattr(schrodinger, "expm",
                            lambda M: calls.append(M.shape) or expm(M))
        build_and_regauge(_gauge(), _well(), GRID)
        assert calls == []
        sig = ThetaSignature(2, 1)
        rng = np.random.default_rng(4)
        gauge = ConstantGauge(A=random_element(sig, rng).gauge_potential)
        build_and_regauge(gauge, sample_audited_potential(sig, rng), GRID)
        assert calls == [(GRID.size, 3, 3)]


    @pytest.mark.parametrize("V", [lambda x: np.ones((3, 3)),
                                   lambda x: x.ravel()**2],
                             ids=["3x3", "scalar_per_node"])
    def test_potential_of_wrong_shape_names_the_expected_one(self, V):
        with pytest.raises(ValueError,
                           match=rf"expected shape \({GRID.size}, 2, 2\)"):
            build_and_regauge(_gauge(), MatrixPotential(m=2, V=V), GRID)


class TestSimilarityFormedOnlyForItsRecord:
    """U H_g U^-1 is formed only by similarity_transform, for the record
    matrix/similarity_spectrum_exact: one verify-all forms it once, and the
    dual build and its comparisons never do.  U and U^-1 are the only
    block-diagonal operators schrodinger assembles."""

    @pytest.fixture
    def formed(self, monkeypatch):
        calls = {"similarity_transform": 0, "block_diagonal": 0}
        similar, assemble = (schrodinger.similarity_transform,
                             schrodinger.block_tridiagonal)

        def counted_similar(*args):
            calls["similarity_transform"] += 1
            return similar(*args)

        def counted_assemble(lower, diag, upper):
            calls["block_diagonal"] += np.ndim(lower) == np.ndim(upper) == 0
            return assemble(lower, diag, upper)

        monkeypatch.setattr(schrodinger, "similarity_transform", counted_similar)
        monkeypatch.setattr(schrodinger, "block_tridiagonal", counted_assemble)
        return calls

    def test_verify_all_forms_it_once(self, formed):
        run("verify-all", VerifyConfig())
        assert formed == {"similarity_transform": 1, "block_diagonal": 2}

    def test_spectrum_matrix_never_forms_it(self, formed):
        run("spectrum-matrix", SpectrumMatrixParams())
        assert formed == {"similarity_transform": 0, "block_diagonal": 0}

    def test_comparisons_never_form_it(self, formed):
        res = build_and_regauge(_gauge(), _well(), GRID)
        spectral_compare(res, SIG, n_low=8)
        schrodinger.lowest_mode_match(res, 8)
        assert formed == {"similarity_transform": 0, "block_diagonal": 0}


def test_grid_convergence_order():
    """Match distance between the two independent assemblies drops at
    second order when the spacing halves."""
    dists = {}
    for h in (0.1, 0.05):
        grid = Grid1D.from_box(6.0, h)
        res = build_and_regauge(_gauge(), _well(), grid)
        out = spectral_compare(res, SIG, n_low=10)
        dists[h] = out.max_match_dist
    order = np.log2(dists[0.1] / dists[0.05])
    assert order >= 1.8
