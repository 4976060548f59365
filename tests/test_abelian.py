import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptgauge.abelian import (
    N_BUFFER,
    ScalarPotentials,
    _cumulative_from_origin,
    build_scalar_hamiltonian,
    gauge_factorization,
    interior_test_vectors,
    split_even_odd,
    verify_pseudo_hermiticity,
    weak_pseudo_hermiticity_residual,
)
from ptgauge.linalg import Grid1D, grid_operator


GRID = Grid1D.from_box(6.0, 0.05)


class TestSplit:
    def test_rejects_non_pt_potential(self):
        with pytest.raises(ValueError):
            split_even_odd(lambda x: x + 0j, GRID)  # real odd part forbidden

    def test_accepts_pt_potential(self):
        a_plus, a_minus = split_even_odd(lambda x: np.cos(x) + 1j * x**3, GRID)
        x = GRID.nodes
        assert np.abs(a_plus - np.cos(x)).max() <= 1e-14
        assert np.abs(a_minus - x**3).max() <= 1e-12

    @given(st.floats(min_value=-2, max_value=2),
           st.floats(min_value=-2, max_value=2))
    @settings(max_examples=25)
    def test_defect_zero_for_even_plus_i_odd(self, a, b):
        f = lambda x: a * np.cos(x) + 1j * b * np.sin(x)
        a_plus, a_minus = split_even_odd(f, GRID)
        x = GRID.nodes
        vals = f(x)
        assert np.abs(vals[::-1] - np.conj(vals)).max() <= 1e-13
        assert np.abs(a_plus - a * np.cos(x)).max() <= 1e-14
        assert np.abs(a_minus - b * np.sin(x)).max() <= 1e-14


class TestFactorization:
    def test_constant_potential_closed_form(self):
        alpha = 1.0
        fact = gauge_factorization(lambda x: alpha + 0j, GRID)
        x = GRID.nodes
        assert np.abs(fact.Q - alpha * x).max() <= 1e-13
        assert np.abs(fact.u_u - np.exp(-1j * alpha * x)).max() <= 1e-12
        assert np.abs(fact.abs_eta - 1.0).max() <= 1e-13

    def test_linear_imaginary_closed_form(self):
        beta = 0.3
        fact = gauge_factorization(lambda x: 1j * beta * x, GRID)
        x = GRID.nodes
        ref = np.exp(beta * x**2 / 2)
        assert np.abs((fact.u_h - ref) / ref).max() <= 1e-12
        # Q = 0 so the unitary factor is trivial and J reduces to parity
        P = grid_operator(GRID, "parity")
        assert np.abs((fact.J - P).toarray()).max() == 0.0

    def test_q_odd_s_even_exactly(self):
        fact = gauge_factorization(lambda x: np.cos(x) + 1j * x, GRID)
        assert np.array_equal(fact.Q[::-1], -fact.Q)

    def test_polar_and_involution_residuals(self):
        fact = gauge_factorization(lambda x: np.cos(x) + 1j * np.sin(x), GRID)
        assert max(fact.residuals.values()) <= 1e-10

    def test_sign_split_when_q_nonvanishing(self):
        fact = gauge_factorization(lambda x: 1.0 + 0j, GRID)
        assert fact.R_Q is not None
        assert fact.residuals["P_RQ_anticommute"] == 0.0

    def test_sign_split_excluded_when_q_vanishes(self):
        fact = gauge_factorization(lambda x: 1j * x, GRID)
        assert fact.R_Q is None

    def test_nan_potential_raises(self):
        with pytest.raises(ValueError, match="PT-symmetric"):
            gauge_factorization(lambda t: complex(np.nan), GRID)

    def test_nan_at_origin_raises(self):
        """x = 0 is no node, so the split passes; the quadrature's half
        cell at the origin would make every node value of Q and S NaN."""
        A = lambda t: np.where(t == 0, np.nan, 1.0) + 0j
        with pytest.raises(ValueError, match=r"A\(0\) must be finite"):
            gauge_factorization(A, GRID)

    def test_non_real_at_origin_raises(self):
        """PT symmetry at x = 0 means a real A(0), which no node checks."""
        A = lambda t: np.where(t == 0, 1.0 + 1e-3j, 1.0) + 0j
        with pytest.raises(ValueError, match=r"A\(0\) must be finite"):
            gauge_factorization(A, GRID)

    def test_eta_overflow_raises(self):
        """|eta| = e^{2S} with S = beta x^2 / 2 overflows once beta box^2
        exceeds log(max float) = 709.8; beta = 11.1 on box 8 does not."""
        grid = Grid1D.from_box(8.0, 0.05)
        gauge_factorization(lambda t: 1j * 11.1 * t, grid)
        with pytest.raises(ValueError, match="overflows"), \
                np.errstate(over="ignore"):
            gauge_factorization(lambda t: 1j * 11.2 * t, grid)

    def test_u_commutes_with_pt(self):
        fact = gauge_factorization(lambda x: np.cos(x) + 1j * x, GRID)
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((GRID.size, 4)) \
            + 1j * rng.standard_normal((GRID.size, 4))
        # PT f = conj(f(-x)) = conj(f[::-1]); PT U f must equal U PT f
        pt = lambda f: np.conj(f[::-1])
        u = (fact.u_u * fact.u_h)[:, None]   # U = U_u U_h
        assert np.abs(pt(u * samples) - u * pt(samples)).max() <= 1e-10


def running_sum_reference(node_vals, value_at_0, grid):
    """The trapezoid antiderivative as a node-by-node running sum outward
    from 0, the first step covering the half cell [0, h/2] on each side."""
    h, N = grid.spacing, grid.half_count
    out = np.empty(2 * N)
    out[N] = 0.5 * (value_at_0 + node_vals[N]) * (h / 2)
    for k in range(N, 2 * N - 1):
        out[k + 1] = out[k] + 0.5 * (node_vals[k] + node_vals[k + 1]) * h
    out[N - 1] = -0.5 * (value_at_0 + node_vals[N - 1]) * (h / 2)
    for k in range(N - 1, 0, -1):
        out[k - 1] = out[k] - 0.5 * (node_vals[k] + node_vals[k - 1]) * h
    return out


class TestQuadrature:
    @pytest.mark.parametrize("half_count", [1, 2, 3, 64, 2560])
    def test_cumsum_matches_running_sum_bit_for_bit(self, half_count):
        rng = np.random.default_rng(half_count)
        grid = Grid1D(half_count=half_count, spacing=0.1 * np.pi)
        vals = rng.standard_normal(grid.size) * 10.0 ** rng.integers(-3, 4)
        v0 = float(rng.standard_normal())
        got = _cumulative_from_origin(vals, v0, grid)
        want = running_sum_reference(vals, v0, grid)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestHamiltonian:
    def test_free_oscillator_reduction(self):
        """A = 0 reduces to p^2 + x^2 with the oscillator levels."""
        H = build_scalar_hamiltonian(
            ScalarPotentials(A=lambda x: 0j, V=lambda x: x**2),
            Grid1D.from_box(8.0, 0.05))
        vals = np.sort(np.linalg.eigvalsh(H.toarray().real))[:4]
        assert np.abs(vals - np.array([1, 3, 5, 7])).max() <= 1e-2

    def test_a_zero_both_residuals_machine(self):
        grid = Grid1D.from_box(6.0, 0.1)
        fact = gauge_factorization(lambda x: 0j, grid)
        H = build_scalar_hamiltonian(
            ScalarPotentials(A=lambda x: 0j, V=lambda x: x**2), grid)
        out = verify_pseudo_hermiticity(H, fact, tol=1e-10)
        assert out.r1 <= 1e-12
        assert out.r2_abs / out.norm_H <= 1e-12

    def test_weak_residual_drops_with_h(self):
        """Interior weak-form residual decreases by roughly h^4 per halving."""
        r = {}
        for h in (0.05, 0.025):
            grid = Grid1D.from_box(8.0, h)
            fact = gauge_factorization(lambda x: 1.0 + 0j, grid)
            H = build_scalar_hamiltonian(
                ScalarPotentials(A=lambda x: 1.0 + 0j, V=lambda x: x**2), grid)
            out = verify_pseudo_hermiticity(H, fact, tol=1.0)
            r[h] = out.r1
        assert r[0.025] < r[0.05] / 8

    def test_naive_parity_residual_large(self):
        grid = Grid1D.from_box(8.0, 0.05)
        fact = gauge_factorization(lambda x: 1.0 + 0j, grid)
        H = build_scalar_hamiltonian(
            ScalarPotentials(A=lambda x: 1.0 + 0j, V=lambda x: x**2), grid)
        out = verify_pseudo_hermiticity(H, fact, tol=1.0)
        assert out.r2_abs > 0.1

    @pytest.mark.parametrize("A", [lambda x: 1.0 + 0j, lambda x: 0.3j * x],
                             ids=["alpha", "beta"])
    def test_both_metrics_from_one_pass(self, A):
        """r1_abs and r2_abs are the kernel's one-metric residuals, bit
        for bit."""
        fact = gauge_factorization(A, GRID)
        H = build_scalar_hamiltonian(ScalarPotentials(A=A, V=lambda x: x**2),
                                     GRID)
        out = verify_pseudo_hermiticity(H, fact, tol=1.0)
        T = interior_test_vectors(GRID)
        assert [out.r1_abs, out.r2_abs] == [
            weak_pseudo_hermiticity_residual(H, [eta], T)[0]
            for eta in (fact.eta, grid_operator(GRID, "parity"))]

    def test_nan_potential_poisons_every_residual(self):
        """A NaN in H must not be reported as a zero weighted-form residual."""
        grid = Grid1D.from_box(4.0, 0.1)
        fact = gauge_factorization(lambda x: 1.0 + 0j, grid)
        H = build_scalar_hamiltonian(
            ScalarPotentials(A=lambda x: 1.0 + 0j, V=lambda x: np.nan), grid)
        out = verify_pseudo_hermiticity(H, fact, tol=1.0)
        assert np.isnan(out.r1)
        assert np.isnan(out.weighted_form_residual)


class TestPotentialCalls:
    """Each potential is called once per build, elementwise, on the node
    array; gauge_factorization also evaluates A at the origin, where the
    quadrature's half cell starts."""

    @staticmethod
    def spy(f, calls):
        def spied(x):
            calls.append(np.copy(x))
            return f(x)
        return spied

    def test_gauge_factorization(self):
        calls = []
        gauge_factorization(self.spy(lambda x: np.cos(x) + 1j * x, calls), GRID)
        assert len(calls) == 2
        assert np.array_equal(calls[0], GRID.nodes)
        assert calls[1] == 0.0

    def test_build_scalar_hamiltonian(self):
        a_calls, v_calls = [], []
        build_scalar_hamiltonian(ScalarPotentials(
            A=self.spy(lambda x: np.cos(x) + 1j * x, a_calls),
            V=self.spy(lambda x: x**2, v_calls)), GRID)
        for calls in (a_calls, v_calls):
            assert len(calls) == 1
            assert np.array_equal(calls[0], GRID.nodes)

    @pytest.mark.parametrize("A", [lambda x: np.ones(3),
                                   lambda x: x[:, None] * np.ones(2)],
                             ids=["length3", "column_per_node"])
    def test_wrong_shape_names_the_expected_one(self, A):
        match = rf"expected shape \({GRID.size},\)"
        with pytest.raises(ValueError, match=match):
            build_scalar_hamiltonian(ScalarPotentials(A=A, V=lambda x: x**2), GRID)
        with pytest.raises(ValueError, match=match):
            gauge_factorization(A, GRID)


class TestInteriorVectors:
    def test_shape_normalization_boundary(self):
        T = interior_test_vectors(GRID)
        assert T.shape == (GRID.size, 9)
        assert np.abs(T[:5]).max() == 0.0
        assert np.abs(T[-5:]).max() == 0.0
        norms = np.linalg.norm(T, axis=0)
        assert np.abs(norms - 1).max() <= 1e-13

    def test_weak_residual_zero_for_selfadjoint_pair(self):
        grid = Grid1D.from_box(4.0, 0.1)
        L = grid_operator(grid, "second_derivative")
        P = grid_operator(grid, "parity")
        T = interior_test_vectors(grid)
        # p^2 is P-selfadjoint exactly, even with boundary rows included
        assert weak_pseudo_hermiticity_residual(L, [P], T)[0] <= 1e-11

    def test_memoized_read_only_real(self):
        """Equal grids share one read-only float64 array."""
        T = interior_test_vectors(Grid1D.from_box(6.0, 0.05))
        assert interior_test_vectors(Grid1D.from_box(6.0, 0.05)) is T
        assert T.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            T[N_BUFFER, 0] = 1.0
