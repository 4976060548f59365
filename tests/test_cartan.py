import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptgauge.cartan import (
    ThetaSignature,
    cartan_split,
    exp_compact,
    exp_noncompact,
    group_polar,
    GaugeAlgebraElement,
    ParityRelationsReport,
    lts_check,
    make_element,
    membership_residual,
    parity_relations_check,
    random_element,
    wick_check,
)
from ptgauge.linalg import expm, worst_residual
from ptgauge.reporting import CheckRecord

SIGS = [(1, 1), (2, 1), (2, 2), (3, 1), (2, 0)]

sig_strategy = st.sampled_from(SIGS)
seed_strategy = st.integers(min_value=0, max_value=10_000)


def _el(sig_pq, seed, scale=1.0):
    sig = ThetaSignature(*sig_pq)
    rng = np.random.default_rng(seed)
    return random_element(sig, rng, scale=scale)


def _wick_residual(a):
    """The residual behind the `cartan/wick_membership` record."""
    out = wick_check(a)
    return worst_residual((out.su_pq_residual, out.antisymmetry_residual,
                           out.compact_block_residual,
                           out.noncompact_block_residual))


class TestElements:
    @given(sig_strategy, seed_strategy)
    @settings(max_examples=60)
    def test_membership(self, sig_pq, seed):
        el = _el(sig_pq, seed)
        assert membership_residual(el.matrix, el.sig) <= 1e-12

    def test_symmetric_u_rejected(self):
        sig = ThetaSignature(2, 1)
        with pytest.raises(ValueError):
            make_element(sig, np.ones((2, 2)), np.zeros((2, 1)),
                         np.zeros((1, 1)))

    @pytest.mark.parametrize("bad, value",
                             [("u", np.nan), ("v", np.inf), ("w", -np.inf)])
    def test_nonfinite_input_rejected(self, bad, value):
        parts = {name: np.zeros((2, 2)) for name in "uvw"}
        parts[bad][0, 1] = value
        with pytest.raises(ValueError, match=f"{bad} must be finite"):
            make_element(ThetaSignature(2, 2), **parts)

    @given(sig_strategy, seed_strategy)
    @settings(max_examples=30)
    def test_membership_residual_matches_matrix_products(self, sig_pq, seed):
        """The sign mask gives the Theta X^H Theta of two matrix products,
        bit for bit."""
        sig = ThetaSignature(*sig_pq)
        rng = np.random.default_rng(seed)
        X = (rng.standard_normal((sig.m, sig.m))
             + 1j * rng.standard_normal((sig.m, sig.m)))
        th = np.diag(np.r_[np.ones(sig.p), -np.ones(sig.q)])
        expected = max(np.abs(X + X.T).max(),
                       np.abs(th @ X.conj().T @ th - X).max())
        assert membership_residual(X, sig) == expected

    def test_cached_arrays_read_only(self):
        el = _el((2, 1), 0)
        for a in (el.sig.signs, el.sig.theta, el.sig.mask, el.matrix):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        assert el.matrix is el.matrix

    def test_generic_antisymmetric_complex_not_member(self):
        """Negative control: so(m, C) elements without Theta-Hermiticity."""
        sig = ThetaSignature(2, 1)
        X = np.zeros((3, 3), dtype=complex)
        X[0, 1], X[1, 0] = 1 + 1j, -(1 + 1j)
        assert np.abs(X + X.T).max() == 0.0
        assert membership_residual(X, sig) > 0.5


class TestCartanSplit:
    @given(sig_strategy, seed_strategy)
    @settings(max_examples=60)
    def test_reconstruction(self, sig_pq, seed):
        el = _el(sig_pq, seed)
        comp = cartan_split(el)
        assert np.abs(comp.b + comp.c - el.matrix).max() <= 1e-14

    @given(sig_strategy, seed_strategy)
    @settings(max_examples=40)
    def test_b_antihermitian_c_hermitian(self, sig_pq, seed):
        comp = cartan_split(_el(sig_pq, seed))
        assert np.abs(comp.b + comp.b.conj().T).max() <= 1e-14
        assert np.abs(comp.c - comp.c.conj().T).max() <= 1e-14

    @given(sig_strategy, seed_strategy)
    @settings(max_examples=40)
    def test_wick_rotation_block_placement(self, sig_pq, seed):
        el = _el(sig_pq, seed)
        assert _wick_residual(el) <= 1e-13 * max(1.0, np.abs(el.matrix).max())

    def test_wick_check_fails_on_nan(self):
        sig = ThetaSignature(2, 1)
        el = GaugeAlgebraElement(sig, u=np.zeros((2, 2)),
                                 v=np.array([[0.5], [np.nan]]),
                                 w=np.zeros((1, 1)))
        assert not CheckRecord("cartan/wick_membership", _wick_residual(el),
                               1e-12).passed


class TestLts:
    @given(sig_strategy, seed_strategy)
    @settings(max_examples=60)
    def test_ternary_closure(self, sig_pq, seed):
        rng = np.random.default_rng(seed)
        sig = ThetaSignature(*sig_pq)
        a1, a2, a3 = (random_element(sig, rng) for _ in range(3))
        out = lts_check(a1, a2, a3)
        assert out.closure_residual <= 1e-12 * out.scale

    def test_binary_escape_mixed_parts(self):
        """[compact, noncompact] leaves g_Theta whenever it is nonzero."""
        sig = ThetaSignature(2, 1)
        ak = make_element(sig, np.zeros((2, 2)), [[1.0], [0.5]],
                          np.zeros((1, 1)))
        u = np.array([[0.0, 1.0], [-1.0, 0.0]])
        ap = make_element(sig, u, np.zeros((2, 1)), np.zeros((1, 1)))
        out = lts_check(ak, ap, ap)
        assert out.binary_escape > 0.5

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            lts_check(_el((2, 1), 0), _el((2, 2), 0), _el((2, 1), 0))


class TestExponentials:
    @given(sig_strategy, seed_strategy,
           st.floats(min_value=-5, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_closed_forms_match_expm(self, sig_pq, seed, x):
        el = _el(sig_pq, seed)
        comp = cartan_split(el)
        Uk = exp_compact(comp, el.sig, x)
        Up = exp_noncompact(comp, el.sig, x)
        assert np.abs(Uk - expm(comp.b * x)).max() <= 1e-10
        assert np.abs(Up - expm(comp.c * x)).max() <= 1e-10

    @given(sig_strategy, seed_strategy, st.floats(min_value=-3, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_compact_factor_orthogonal(self, sig_pq, seed, x):
        el = _el(sig_pq, seed)
        Uk = exp_compact(cartan_split(el), el.sig, x)
        assert np.abs(Uk.imag).max() == 0.0
        assert np.abs(Uk.T @ Uk - np.eye(el.sig.m)).max() <= 1e-12

    @given(sig_strategy, seed_strategy, st.floats(min_value=-3, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_noncompact_factor_positive(self, sig_pq, seed, x):
        el = _el(sig_pq, seed)
        Up = exp_noncompact(cartan_split(el), el.sig, x)
        assert np.abs(Up - Up.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(Up).min() > 0

    def test_tiny_coupling_uses_series_limit(self):
        sig = ThetaSignature(1, 1)
        el = make_element(sig, np.zeros((1, 1)), [[1e-12]], np.zeros((1, 1)))
        Uk = exp_compact(cartan_split(el), sig, 1.0)
        assert np.abs(Uk - expm(cartan_split(el).b)).max() <= 1e-12


class TestPolar:
    @given(sig_strategy, seed_strategy, st.floats(min_value=-2, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, sig_pq, seed, x):
        el = _el(sig_pq, seed)
        comp = cartan_split(el)
        U = exp_compact(comp, el.sig, x) @ exp_noncompact(comp, el.sig, x)
        fac = group_polar(U, el.sig)
        assert np.abs(fac.U_k @ fac.U_p - U).max() <= 1e-9
        assert max(fac.residuals.values()) <= 1e-8

    def test_ill_conditioned_factors(self):
        """cond(U) = e^12 = 1.6e5.  Factors taken from U^H U (cond 2.6e10)
        miss the 1e-8 bound of cartan/group_polar_structure by 66x."""
        sig = ThetaSignature(2, 1)
        u = 3.0 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        comp = cartan_split(make_element(sig, u, [[0.3], [-0.7]],
                                         np.zeros((1, 1))))
        Uk, Up = exp_compact(comp, sig, 2.0), exp_noncompact(comp, sig, 2.0)
        fac = group_polar(Uk @ Up, sig)
        assert max(fac.residuals.values()) <= 1e-10
        assert np.abs(fac.U_k - Uk).max() <= 1e-10
        assert np.abs(fac.U_p - Up).max() <= 1e-12 * np.abs(Up).max()

    def test_singular_input_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            group_polar(np.zeros((2, 2)), ThetaSignature(1, 1))


class TestParityRelations:
    def test_max_residual_propagates_nan(self):
        out = ParityRelationsReport(compact_residual=0.0,
                                    noncompact_residual=np.nan,
                                    metric_residual=0.0)
        assert np.isnan(out.max_residual)

    @given(sig_strategy, seed_strategy, st.floats(min_value=-2, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_relations_hold(self, sig_pq, seed, x):
        out = parity_relations_check(_el(sig_pq, seed), x)
        assert out.max_residual <= 1e-10

    def test_nonhermitian_noncompact_part_fails(self):
        """Negative control: the metric identity U(x)^H Theta U(-x) = Theta
        needs a Hermitian noncompact generator; i times a real diagonal
        breaks it at O(1)."""
        sig = ThetaSignature(1, 1)
        th = sig.theta
        b = np.array([[0.0, 0.7], [-0.7, 0.0]], dtype=complex)
        c_bad = np.diag([0.3j, 0.0])
        U_pos = expm(b) @ expm(c_bad)
        U_neg = expm(-b) @ expm(-c_bad)
        assert np.abs(U_pos.conj().T @ th @ U_neg - th).max() > 1e-3
