import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from ptgauge.cliffords import (
    CliffordGenerators,
    rotated_involution,
    verify_clifford_relations,
)
from ptgauge.linalg import Grid1D, expm, grid_operator
from ptgauge.reporting import CheckRecord


def _pr(half=8, h=0.2):
    g = Grid1D(half_count=half, spacing=h)
    return grid_operator(g, "parity"), grid_operator(g, "sign")


@given(st.integers(min_value=1, max_value=30),
       st.floats(min_value=1e-3, max_value=1.0))
@settings(max_examples=40)
def test_relations_exact_on_any_grid(half, h):
    P, R = _pr(half, h)
    gens = CliffordGenerators(m_plus=2, m_minus=0, generators=[P, R])
    out = verify_clifford_relations(gens)
    assert out.max_residual == 0.0
    assert out.span_dim == 4


def test_signature_mismatch_rejected():
    P, R = _pr()
    with pytest.raises(ValueError):
        CliffordGenerators(m_plus=1, m_minus=0, generators=[P, R])


def test_commuting_generators_fail():
    """Negative control: two commuting involutions violate anticommutation."""
    e1 = np.diag([1.0, -1.0])
    e2 = np.diag([-1.0, 1.0])
    out = verify_clifford_relations(
        CliffordGenerators(m_plus=2, m_minus=0, generators=[e1, e2]))
    assert out.max_residual > 1.0


def test_nan_generator_fails():
    """A NaN in a later generator must not be dropped by the reduction;
    three generators, so no rank (which would need an SVD of NaN)."""
    e1 = np.diag([1.0, -1.0])
    e2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    e3 = np.array([[0.0, np.nan], [1.0, 0.0]])
    out = verify_clifford_relations(
        CliffordGenerators(m_plus=3, m_minus=0, generators=[e1, e2, e3]))
    assert np.isnan(out.max_residual)
    assert not CheckRecord("relations", out.max_residual, 1.0).passed


def test_wrong_square_sign_detected():
    P, R = _pr()
    out = verify_clifford_relations(
        CliffordGenerators(m_plus=0, m_minus=2, generators=[P, R]))
    assert out.max_residual >= 2.0


class TestRotatedInvolution:
    @given(st.floats(min_value=-10, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_involution_and_hermitian(self, phi):
        P, R = _pr()
        M = rotated_involution(P, R, phi).matrix
        eye = np.eye(M.shape[0])
        assert np.abs(M @ M - eye).max() <= 1e-12
        assert np.abs(M - M.conj().T).max() <= 1e-12

    def test_phi_zero_is_parity(self):
        P, R = _pr()
        M = rotated_involution(P, R, 0.0).matrix
        assert np.abs(M - P.toarray()).max() <= 1e-15

    @given(st.floats(min_value=-3, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_two_pi_periodicity(self, phi):
        P, R = _pr()
        a = rotated_involution(P, R, phi).matrix
        b = rotated_involution(P, R, phi + 2 * np.pi).matrix
        assert np.abs(a - b).max() <= 1e-12

    def test_intertwining_with_sign_exponential(self):
        """P e^{i phi R} = e^{-i phi R} P, the relation that makes the
        one-sided and symmetric definitions of P_phi agree."""
        P, R = _pr()
        phi = 0.83
        P, R = P.toarray(), R.toarray()
        lhs = P @ expm(1j * phi * R)
        rhs = expm(-1j * phi * R) @ P
        assert np.abs(lhs - rhs).max() <= 1e-13

    def test_rejects_noninvolution(self):
        g = Grid1D(half_count=4, spacing=0.5)
        P = grid_operator(g, "parity")
        X = scipy.sparse.diags_array(g.nodes)
        with pytest.raises(ValueError):
            rotated_involution(P, X, 0.5)

    def test_rejects_commuting_base(self):
        g = Grid1D(half_count=4, spacing=0.5)
        P = grid_operator(g, "parity")
        with pytest.raises(ValueError):
            rotated_involution(P, P, 0.5)


def _expm_forms(P, R, phi):
    """The defining expressions P e^{i phi R} and e^{-i phi R/2} P
    e^{i phi R/2}, by dense matrix exponentials: the oracle of the closed
    form that rotated_involution stores."""
    P, R = P.toarray(), R.toarray()
    one_sided = P @ expm(1j * phi * R)
    symmetric = expm(-1j * phi * R / 2) @ P @ expm(1j * phi * R / 2)
    return one_sided, symmetric


class TestRotatedInvolutionOracle:
    @given(st.floats(min_value=-10, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_both_expm_forms(self, phi):
        P, R = _pr()
        M = rotated_involution(P, R, phi).matrix.toarray()
        for form in _expm_forms(P, R, phi):
            assert np.abs(M - form).max() <= 1e-15

    def test_bit_for_bit_at_verify_all_angles(self):
        g = Grid1D(half_count=32, spacing=0.1)
        P, R = grid_operator(g, "parity"), grid_operator(g, "sign")
        for phi in np.linspace(-3.0, 3.0, 20):
            M = rotated_involution(P, R, float(phi)).matrix
            assert np.array_equal(M.toarray(), _expm_forms(P, R, phi)[0])

    @pytest.mark.parametrize("phi", [0.0, 0.7, -np.pi / 2, np.pi])
    def test_stored_anti_diagonal(self, phi):
        P, R = _pr()
        M = rotated_involution(P, R, phi).matrix
        n = M.shape[0]
        assert isinstance(M, scipy.sparse.csr_array)
        assert np.array_equal(np.diff(M.indptr), np.ones(n))
        assert np.array_equal(M.indices, np.arange(n)[::-1])


class TestRotatedInvolutionMemo:
    """The last (P, R) pair that passed its checks is kept; any other pair,
    an edited one included, is checked again."""

    def test_invalid_pair_raises_after_a_valid_one(self):
        P, R = _pr()
        rotated_involution(P, R, 0.3)
        with pytest.raises(ValueError, match="involutions"):
            rotated_involution(P, 2 * R, 0.3)
        rotated_involution(P, R, 0.3)
        with pytest.raises(ValueError, match="anticommute"):
            rotated_involution(P, P, 0.3)
        with pytest.raises(ValueError, match="anticommute"):
            rotated_involution(P, P, 0.3)

    def test_in_place_edit_is_checked_again(self):
        P, R = _pr()
        P = P.copy()
        rotated_involution(P, R, 0.3)
        P.data[0] = 2.0
        with pytest.raises(ValueError, match="involutions"):
            rotated_involution(P, R, 0.3)

    def test_alternating_pairs(self):
        P, R = _pr()
        pairs = [(P, R), (P, -R), _pr(half=5, h=0.3)]
        for phi in np.linspace(-3.0, 3.0, 7):
            for A, B in pairs:
                M = rotated_involution(A, B, float(phi)).matrix
                ref = math.cos(phi) * A + 1j * math.sin(phi) * (A @ B)
                assert np.array_equal(M.toarray(), ref.toarray())
