import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

from ptgauge import cliffords
from ptgauge.cliffords import rotated_involution, verify_clifford_relations
from ptgauge.linalg import Grid1D, expm, grid_operator
from ptgauge.reporting import CheckRecord, Report
from ptgauge.verification import VerifyConfig, _span_dim, \
    check_clifford_relations


def _pr(half=8, h=0.2):
    g = Grid1D(half_count=half, spacing=h)
    return grid_operator(g, "parity"), grid_operator(g, "sign")


@given(st.integers(min_value=1, max_value=30),
       st.floats(min_value=1e-3, max_value=1.0))
@settings(max_examples=40)
def test_relations_exact_on_any_grid(half, h):
    P, R = _pr(half, h)
    res = verify_clifford_relations(P, R)
    assert type(res) is float and res == 0.0
    assert _span_dim(P, R, res) == 4


def test_unequal_shapes_rejected():
    P, R = _pr()
    _, R_small = _pr(half=4)
    with pytest.raises(ValueError, match="square of equal dimension"):
        verify_clifford_relations(P, R_small)
    with pytest.raises(ValueError, match="square of equal dimension"):
        verify_clifford_relations(np.ones((2, 3)), np.ones((2, 3)))


def test_commuting_generators_fail():
    """Negative control: two commuting involutions violate anticommutation,
    and as e2 = -e1 the span of {I, e1, e2, e1 e2} is two-dimensional."""
    e1 = scipy.sparse.csr_array(np.diag([1.0, -1.0]))
    e2 = -e1
    res = verify_clifford_relations(e1.toarray(), e2.toarray())
    assert res > 1.0
    assert _span_dim(e1, e2, res) == 2


def test_nan_generator_fails():
    """A NaN in the second generator must not be dropped by the reduction."""
    e1 = np.diag([1.0, -1.0])
    e2 = np.array([[0.0, np.nan], [1.0, 0.0]])
    res = verify_clifford_relations(e1, e2)
    assert np.isnan(res)
    assert not CheckRecord("relations", res, 1.0).passed


def _with_nan(A):
    """A copy of sparse A with its first stored entry NaN."""
    A = A.copy()
    A.data[0] = np.nan
    return A


def test_nan_pair_gives_nan_residual_and_no_rank():
    """A NaN in P or in R: a NaN residual and a failing record.  The span
    rank is no part of the relation check; check_clifford_relations skips
    it past a NaN residual (test_acceptance)."""
    P, R = _pr(half=4)
    for pair in ((P, _with_nan(R)), (_with_nan(P), R)):
        res = verify_clifford_relations(*pair)
        assert np.isnan(res)
        assert not CheckRecord("relations", res, 0.0).passed


def test_span_rank_allocates_o_nnz():
    """At n = 1024 the rank reads a 4 x k array over the k stored positions
    and peaks under 4 MB; the dense 4 x n^2 stack alone is 64 MB."""
    P, R = _pr(half=512, h=0.01)
    tracemalloc.start()
    try:
        span = _span_dim(P, R, verify_clifford_relations(P, R))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert span == 4
    assert peak < 4 * 2**20


def test_wrong_square_sign_detected():
    """i P squares to -I, so P^2 = I fails by 2."""
    P, R = _pr()
    assert verify_clifford_relations(1j * P, R) >= 2.0


class _Spy:
    """Counts the calls of module.name, which it wraps."""

    def __init__(self, monkeypatch, module, name):
        real = getattr(module, name)
        self.calls = 0

        def spy(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)


def test_rank_only_in_the_record(monkeypatch):
    """rotated_involution checks a new pair without a rank or an SVD; the
    record clifford/span_dim_4 still takes its rank, once."""
    spies = [_Spy(monkeypatch, np.linalg, "matrix_rank"),
             _Spy(monkeypatch, np.linalg, "svd"),
             _Spy(monkeypatch, scipy.linalg, "svd")]
    monkeypatch.setattr(cliffords, "_checked", None)
    relations = _Spy(monkeypatch, cliffords, "verify_clifford_relations")
    for pair in (_pr(half=7, h=0.3), _pr(half=9, h=0.3)):
        rotated_involution(*pair, 0.4)
    assert relations.calls == 2
    assert [s.calls for s in spies] == [0, 0, 0]

    rep = Report(command="clifford", config={})
    check_clifford_relations(rep, VerifyConfig())
    assert spies[0].calls == 1
    assert [(r.name, r.residual, r.passed) for r in rep.records] == [
        ("clifford/anticommutation_and_squares", 0.0, True),
        ("clifford/span_dim_4", 0.0, True)]


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

    @pytest.mark.parametrize("nan_in", [0, 1])
    def test_rejects_nan_pair(self, nan_in):
        """A NaN in P or in R fails the relation check, so no P_phi with NaN
        entries is returned."""
        pair = list(_pr(half=4))
        pair[nan_in] = _with_nan(pair[nan_in])
        with pytest.raises(ValueError, match="involutions.*anticommute"):
            rotated_involution(*pair, 0.5)


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
        rotated_involution(P, R, 0.3)
        with pytest.raises(ValueError, match="residual nan"):
            rotated_involution(P, _with_nan(R), 0.3)

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
