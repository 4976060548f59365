import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ptgauge import pointint
from ptgauge.linalg import pairing_check, worst_residual
from ptgauge.pointint import (
    CLASSIFICATIONS,
    CouplingMatrixT,
    PiecewiseFunction,
    _principal_angle,
    apply_p_phi_traces,
    bound_states,
    boundary_maps,
    boundary_transform_check,
    clifford_angle,
    domain_check,
    matrix_relation_residual,
    pt_phase_sweep,
)
from ptgauge.reporting import CheckRecord
from ptgauge.verification import WELL_BOX, WELL_H, WELL_WIDTH, \
    delta_well_grid_energy

finite = st.floats(min_value=-3, max_value=3, allow_nan=False)


def pt_coupling(t11, t22, b12, b21):
    return CouplingMatrixT(t11=complex(t11), t12=1j * b12, t21=1j * b21,
                           t22=complex(t22))


def oracle_states(T):
    """(kappa, E) of the decaying states, by np.roots on the closed-form
    det M(k) = t11 + (2 - det T / 2) k - t22 k^2 (in float64 when every
    coefficient is real, else in Python complex),
    filtered and ordered as bound_states documents."""
    c0, c1, c2 = T.t11, 2 - T.det / 2, -T.t22
    if c0.imag == c1.imag == c2.imag == 0:   # np.roots then works in float64
        c0, c1, c2 = c0.real, c1.real, c2.real
    if abs(c2) > 1e-14:
        k = np.roots([c2, c1, c0])
    elif abs(c1) > 1e-14:
        k = np.array([-c0 / c1])
    else:
        k = np.array([], dtype=complex)
    k = k[~(k.real <= 1e-12)]
    k = np.where(np.abs(k.imag) <= 1e-10, k.real + 0j, k)
    return sorted(((kk, -kk**2) for kk in k),
                  key=lambda s: (s[1].real, s[1].imag))


def bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(
        np.uint64).tolist()


def assert_oracle_states(T, states):
    want = oracle_states(T)
    assert len(states) == len(want)
    assert bits([s.kappa for s in states]) == bits([k for k, _ in want])
    assert bits([s.energy for s in states]) == bits([e for _, e in want])


class TestBoundaryTriple:
    def test_exponential_well_function(self):
        """f = e^{-|x|} solves the delta-well domain condition for t11=-2."""
        f = PiecewiseFunction(f_plus=1, f_minus=1, df_plus=-1, df_minus=1)
        gamma0, gamma1 = boundary_maps(f)
        assert np.allclose(gamma0, [1, 0])
        assert np.allclose(gamma1, [-2, 0])
        T = pt_coupling(-2, 0, 0, 0)
        assert domain_check(T, f) <= 1e-10


class TestCliffordAngle:
    @given(finite, finite, finite)
    @settings(max_examples=60)
    def test_phi_zero_iff_symmetric_offdiagonal(self, t11, t22, b):
        sol = clifford_angle(pt_coupling(t11, t22, b, b))
        assert sol.phi == 0.0

    def test_reference_value(self):
        sol = clifford_angle(CouplingMatrixT(t11=1, t12=1j, t21=-1j, t22=0))
        assert abs(sol.phi - np.arctan2(4, 3)) <= 1e-15
        assert sol.residual <= 1e-13

    def test_degenerate_flagged(self):
        # det T = -4 with t12 = t21 leaves the angle undetermined
        sol = clifford_angle(pt_coupling(2, -2, 0, 0))
        assert sol.degenerate
        assert sol.phi == 0.0

    @given(finite, finite, finite, finite)
    @settings(max_examples=60)
    def test_principal_branch(self, t11, t22, b12, b21):
        sol = clifford_angle(pt_coupling(t11, t22, b12, b21))
        assert -np.pi / 2 < sol.phi <= np.pi / 2

    def test_non_pt_rejected(self):
        with pytest.raises(ValueError):
            clifford_angle(CouplingMatrixT(t11=1j, t12=0, t21=0, t22=0))

    @pytest.mark.parametrize("t22", [1e5, 1e8])
    def test_small_angle_keeps_its_relative_accuracy(self, t22):
        """d = det T + 4 < 0 and 2 beta / d small: phi = arctan(2 beta / d)
        to rounding, and the defining relation to 1e-15.  A fold of
        arctan2 by pi kept only ulp(pi) of phi: 2.3e-12 at t22 = 1e5."""
        T = CouplingMatrixT(t11=-2, t12=1j, t21=4j, t22=t22)
        sol = clifford_angle(T)
        expected = np.arctan(-6 / ((T.det + 4).real))
        assert abs(sol.phi - expected) <= 4e-16 * abs(expected)
        assert sol.residual <= 1e-15

    @pytest.mark.parametrize("d, beta, phi", [
        (0.0, 1.0, np.pi / 2), (0.0, -1.0, np.pi / 2), (-0.0, 1.0, np.pi / 2),
        (-1.0, 0.0, 0.0), (-1.0, -0.0, 0.0), (1.0, -0.0, -0.0),
        (-1e-300, 1e10, np.pi / 2), (0.0, 0.0, 0.0)])
    def test_branch_ends_and_signed_zeros(self, d, beta, phi):
        """d = 0 and an overflowing quotient give pi/2, never -pi/2; beta = 0
        gives +0.0 at d < 0, and beta's zero at d > 0."""
        got, degenerate = _principal_angle(d, beta)
        assert got == phi and np.signbit(got) == np.signbit(phi)
        assert degenerate == (d == beta == 0)


def _transform_residual(out):
    return worst_residual((out.gamma_residual, out.matrix_residual))


class TestBoundaryTransform:
    @given(finite, finite, finite, finite, st.integers(0, 1000))
    @settings(max_examples=60)
    def test_identities_at_solved_angle(self, t11, t22, b12, b21, seed):
        T = pt_coupling(t11, t22, b12, b21)
        sol = clifford_angle(T)
        rng = np.random.default_rng(seed)
        fs = [PiecewiseFunction(*(rng.standard_normal(4)
                                  + 1j * rng.standard_normal(4)))
              for _ in range(3)]
        out = boundary_transform_check(T, sol, fs)
        assert _transform_residual(out) <= 1e-12

    def test_wrong_angle_fails(self):
        T = CouplingMatrixT(t11=1, t12=1j, t21=-1j, t22=0)
        sol = clifford_angle(T)
        bad = type(sol)(phi=sol.phi + 0.3, degenerate=False,
                        m1=np.cos(sol.phi + 0.3) * np.diag([1.0, -1.0]),
                        m2=(1j / 2) * np.sin(sol.phi + 0.3)
                        * np.array([[0, 1], [1, 0]]),
                        residual=0.0)
        f = PiecewiseFunction(1.0, 0.5, -0.3, 0.7)
        out = boundary_transform_check(T, bad, [f])
        assert _transform_residual(out) > 1e-12

    def test_no_samples_rejected(self):
        T = CouplingMatrixT(t11=1, t12=1j, t21=-1j, t22=0)
        with pytest.raises(ValueError, match="nonempty"):
            boundary_transform_check(T, clifford_angle(T), [])

    def test_nan_trace_fails(self):
        T = CouplingMatrixT(t11=1, t12=1j, t21=-1j, t22=0)
        fs = [PiecewiseFunction(1.0, 0.5, -0.3, 0.7),
              PiecewiseFunction(np.nan, 0.5, -0.3, 0.7)]
        out = boundary_transform_check(T, clifford_angle(T), fs)
        assert np.isnan(out.gamma_residual)
        assert not CheckRecord("point/gamma_transform", out.gamma_residual,
                               1e-12).passed

    def test_nan_angle_poisons_matrix_relation(self):
        """det T + 4 = inf - inf makes phi NaN; the residual must be NaN,
        not the 0.0 a reduction starting from max(0.0, ...) reports."""
        T = CouplingMatrixT(t11=1e200, t12=1e200j, t21=-1e200j, t22=1e200)
        sol = clifford_angle(T)
        assert np.isnan(sol.phi)
        res = matrix_relation_residual(T, sol.m1, sol.m2)
        assert np.isnan(res)
        assert not CheckRecord("point/matrix_relation", res, 1e-12).passed

    @given(st.floats(min_value=-1.5, max_value=1.5), st.integers(0, 500))
    @settings(max_examples=40)
    def test_p_phi_is_involution_on_traces(self, phi, seed):
        rng = np.random.default_rng(seed)
        f = PiecewiseFunction(*(rng.standard_normal(4)
                                + 1j * rng.standard_normal(4)))
        g = apply_p_phi_traces(apply_p_phi_traces(f, phi), phi)
        assert abs(g.f_plus - f.f_plus) <= 1e-13
        assert abs(g.df_minus - f.df_minus) <= 1e-13


class TestBoundStates:
    def test_delta_well_closed_form(self):
        states = bound_states(pt_coupling(-2, 0, 0, 0))
        assert len(states) == 1
        assert abs(states[0].energy - (-1.0)) <= 1e-12
        assert states[0].domain_residual <= 1e-10

    @given(st.floats(min_value=-4, max_value=-0.2))
    @settings(max_examples=40)
    def test_single_coupling_energy_formula(self, t11):
        states = bound_states(pt_coupling(t11, 0, 0, 0))
        assert len(states) == 1
        assert abs(states[0].energy - (-t11**2 / 4)) <= 1e-10

    @given(st.floats(min_value=0.2, max_value=4))
    @settings(max_examples=25)
    def test_repulsive_coupling_no_state(self, t11):
        assert bound_states(pt_coupling(t11, 0, 0, 0)) == []

    def test_grid_oracle(self):
        """Independent narrow-square-well discretization of the delta well."""
        assert abs(delta_well_grid_energy(-2.0) - (-1.0)) <= 1e-3
        assert abs(delta_well_grid_energy(-1.0) - (-0.25)) <= 1e-3

    @pytest.mark.parametrize("t11", [-2.0, -1.0, -0.5])
    def test_grid_oracle_even_half_is_the_whole_grid(self, t11):
        """The oracle's even-half bisection gives the lowest eigenvalue of
        the whole n-node Jacobi matrix T within stebz's 4 eps |T|."""
        h = WELL_H
        n = int(round(2 * WELL_BOX / h))
        x = (np.arange(n) - (n - 1) / 2) * h
        V = np.where(np.abs(x) < WELL_WIDTH / 2, t11 / WELL_WIDTH, 0.0)
        whole = scipy.linalg.eigh_tridiagonal(
            2 / h**2 + V, np.full(n - 1, -1 / h**2), eigvals_only=True,
            select="i", select_range=(0, 0))[0]
        norm = 4 / h**2 + abs(t11) / WELL_WIDTH
        assert abs(delta_well_grid_energy(t11) - whole) <= \
            4 * np.finfo(float).eps * norm

    # half-integer lattice keeps the quadratic coefficients away from the
    # near-degenerate regime where kappa blows up and rounding dominates
    lattice = st.sampled_from([x / 2 for x in range(-6, 7)])

    def test_matches_np_roots_on_random_complex_couplings(self):
        """Bit for bit the np.roots oracle: quadratic couplings, linear ones
        (t22 = 0) and ones with a zero root (t11 = 0)."""
        rng = np.random.default_rng(11)
        counts = set()
        for i in range(2000):
            t = [complex(z) for z in 2 * (rng.standard_normal(4)
                                          + 1j * rng.standard_normal(4))]
            if i % 4 == 1:
                t[3] = 0j
            elif i % 4 == 2:
                t[0] = 0j
            T = CouplingMatrixT(*t)
            states = bound_states(T)
            assert_oracle_states(T, states)
            counts.add((i % 4, len(states)))
        assert {(0, 2), (1, 1), (2, 1), (3, 0)} <= counts

    def test_zero_root_dropped_at_t11_zero(self):
        """At t11 = 0, det M(k) = k (c1 + c2 k): bound_states keeps exactly
        the root -c1/c2 (as numpy divides, in float64 for real coefficients)
        where it decays, and drops the zero root, for PT and complex
        couplings; each sweep row at t11 = 0 is bound_states of its
        coupling."""
        axes = ([0.0], [-2.0, -0.5, 1.0, 3.0], [-1.5, 0.0, 2.0],
                [-2.5, 0.0, 1.0])
        pt = [pt_coupling(*t) for t in itertools.product(*axes)]
        rng = np.random.default_rng(5)
        z = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
        seen = set()
        for T in pt + [CouplingMatrixT(0j, *map(complex, t)) for t in z]:
            c1, c2 = np.array([2 - T.det / 2]), np.array([-T.t22])
            real = c1.imag[0] == c2.imag[0] == 0
            root = complex((-c1.real / c2.real if real else -c1 / c2)[0])
            states = bound_states(T)
            assert len(states) == (root.real > 1e-12)
            if states:
                if abs(root.imag) <= 1e-10:
                    root = complex(root.real, 0.0)
                assert bits(states[0].kappa) == bits(root)
            seen.add((bool(real), len(states)))
        assert seen == {(True, 0), (True, 1), (False, 0), (False, 1)}
        for row, T in zip(pt_phase_sweep(*axes), pt, strict=True):
            energies = np.full(2, complex(np.nan, np.nan))
            energies[:row.n_bound] = [s.energy for s in bound_states(T)]
            assert bits(row.energies) == bits(energies)

    # the default coupling of point-spectrum, its t22 = -1e-13 (kappa =
    # 4.5e6), the delta well, t11 = 0 (det M(k) has a zero root), and large
    # couplings of point-spectrum, whose terms of T Gamma_0 f cancel
    @pytest.mark.parametrize("T", [
        CouplingMatrixT(-2, 1j, 4j, 1), CouplingMatrixT(-2, 1j, 4j, -1e-13),
        pt_coupling(-2, 0, 0, 0), CouplingMatrixT(0, 0.5j, -1j, 1),
        CouplingMatrixT(-1e8, 1j, 4j, 1), CouplingMatrixT(1e8j, 1j, 4j, 1),
        CouplingMatrixT(-2, 1j, 4j, -1e8), CouplingMatrixT(-2, 1j, 4j, -1e12),
        CouplingMatrixT(-2, 1e12j, -3j, 1),
        CouplingMatrixT(-2, 1e200j, 1e-200j, 1)],
        ids=["default", "t22_-1e-13", "delta_well", "t11_0", "t11_-1e8",
             "t11_1e8i", "t22_-1e8", "t22_-1e12", "t12_1e12i_t21_-3i",
             "t12_1e200i_t21_1e-200i"])
    def test_domain_residual_is_relative(self, T):
        """The domain residual is relative to the size of the terms of
        T Gamma_0 f and of Gamma_1 f, so every state reads rounding: the one
        at kappa = 4.5e6 too (its absolute residual is 6.6e-10), and those
        at large couplings, where |T Gamma_0 f| missed the size of its
        cancelling terms (t22 = -1e12 read 3.9e-5).  Negative twin: the
        state's amplitude b scaled by 1 + 1e-8 reads 1.67e-9 or more, over
        the 1e-10 bound of the record."""
        states = bound_states(T)
        assert states
        for s in states:
            k = s.kappa
            a, b = np.linalg.svd(pointint._matching_matrix(T, k))[2][-1].conj()
            f = PiecewiseFunction(a, b, -k * a, k * b)
            assert domain_check(T, f) == s.domain_residual <= 1e-14
            b = b * (1 + 1e-8)
            assert domain_check(T, PiecewiseFunction(a, b, -k * a, k * b)) > 1e-10

    def test_domain_residual_reads_nan_past_overflow(self):
        """T Gamma_0 f = Gamma_1 f holds exactly here, but the size of the
        terms of T Gamma_0 f overflows, so no rounding can be judged: the
        residual reads NaN, where it read 0."""
        T = CouplingMatrixT(1e200, 4, 0, 2e200)
        f = PiecewiseFunction(1e200, -1e200, 1, -3)
        assert np.isnan(domain_check(T, f))

    @given(lattice, lattice, lattice, lattice)
    @settings(max_examples=60)
    def test_states_satisfy_domain_condition(self, t11, t22, b12, b21):
        for s in bound_states(pt_coupling(t11, t22, b12, b21)):
            assert s.domain_residual <= 1e-8
            assert s.kappa.real > 0


class TestSweep:
    def test_deterministic_and_paired(self):
        grids = (np.linspace(-2, 1, 3), np.linspace(-1, 1, 2),
                 np.linspace(-1, 1, 3), np.linspace(-1, 1, 3))
        rows1 = pt_phase_sweep(*grids)
        rows2 = pt_phase_sweep(*grids)
        assert len(rows1) == 3 * 2 * 3 * 3
        for r1, r2 in zip(rows1, rows2):
            assert r1.classification == r2.classification
            assert np.array_equal(np.nan_to_num(r1.energies),
                                  np.nan_to_num(r2.energies))
            assert r1.classification != "unpaired"

    def test_rows_match_per_coupling_reference(self):
        """Every row equals, bit for bit, clifford_angle and the np.roots
        oracle on its coupling, and so does bound_states.  The axes hold
        t22 = 0 (linear, and c1 = 0 at im_t12 = im_t21 = 2: no root), t11 = 0
        (a zero root), linear roots whose quotient rounds (t11 = -2.7 at
        im_t12 = 2, im_t21 = -2.5, and t11 = 0.3 at im_t12 = 3, im_t21 = 2.5),
        det T + 4 = 0 with beta = 0 (degenerate, at t11 = -t22 = 2) and a
        double root (k = 1 at t11 = -t22 = 1, im_t12 = im_t21 = 3)."""
        axes = ([-2.7, -2.0, 0.0, 0.3, 1.0, 2.0], [-2.0, -1.0, 0.0, 2.0],
                [0.0, 2.0, 3.0], [-2.5, -1.0, 0.0, 2.0, 2.5, 3.0])
        rows = pt_phase_sweep(*axes)
        seen = set()
        for row, (t11, t22, b12, b21) in zip(rows, itertools.product(*axes),
                                             strict=True):
            T = pt_coupling(t11, t22, b12, b21)
            sol = clifford_angle(T)
            states = bound_states(T)
            assert_oracle_states(T, states)
            energies = np.full(2, complex(np.nan, np.nan))
            energies[:len(states)] = [e for _, e in oracle_states(T)]
            cls = (pairing_check(energies[:len(states)], 1e-8) if states
                   else "all_real")
            assert (row.t11, row.t22, row.im_t12, row.im_t21) == (t11, t22, b12, b21)
            assert bits(row.phi) == bits(sol.phi)
            assert row.degenerate is sol.degenerate
            assert row.n_bound == len(states)
            assert bits(row.energies) == bits(energies)
            assert row.classification == cls
            seen.add((len(states), sol.degenerate))
            if t11 == 1 and t22 == -1 and b12 == b21 == 3:
                assert len(states) == 2
                assert abs(states[0].energy + 1) <= 1e-7
        assert {(0, False), (1, False), (2, False), (0, True)} <= seen

    def test_broken_rows_pair_exactly(self):
        """PT couplings give real coefficients, solved in float64, so the
        two energies of every broken-PT row are exact conjugates."""
        rows = pt_phase_sweep(np.linspace(-3, 3, 7), np.linspace(-3, 3, 7),
                              np.linspace(-2, 2, 5), np.linspace(-2, 2, 5))
        broken = [r for r in rows if r.n_bound == 2 and r.energies[0].imag]
        assert len(broken) >= 20
        for r in broken:
            assert bits(r.energies[1]) == bits(np.conj(r.energies[0]))

    def test_broken_phase_present(self):
        """Couplings with complex-pair energies appear in a generic sweep."""
        rows = pt_phase_sweep(np.linspace(-3, 3, 5), np.linspace(-3, 3, 5),
                              np.linspace(-2, 2, 3), np.linspace(-2, 2, 3))
        assert any(r.classification == "conjugate_paired" for r in rows)
        assert any(r.classification == "all_real" for r in rows)

    def test_classification_column_is_pairing_check(self):
        """Over more than one block, with t22 = 0 (linear), t11 = 0 (a zero
        root), det T + 4 = 0 with beta = 0 (degenerate, at t11 = -t22 = 2)
        and a double root (t11 = -t22 = 1, im_t12 = im_t21 = 3), each code
        names pairing_check of the row's n_bound energies."""
        axes = ([-2.7, -2.0, 0.0, 0.3, 1.0, 2.0], [-2.0, -1.0, 0.0, 0.5, 2.0],
                [-1.0, 0.0, 2.0, 3.0],
                [-2.5, -1.0, -0.5, 0.0, 0.5, 2.0, 2.5, 3.0, 4.0])
        sweep = pt_phase_sweep(*axes)
        assert len(sweep) > pointint._BLOCK
        seen = set()
        for code, row in zip(sweep.classification, sweep, strict=True):
            want = pairing_check(row.energies[:row.n_bound], 1e-8)
            assert CLASSIFICATIONS[code] == row.classification == want
            seen.add((want, row.degenerate))
        assert {("all_real", True), ("all_real", False),
                ("conjugate_paired", False)} <= seen

    @pytest.mark.parametrize("energies, count", [
        ([1j, -1j], 2), ([1j, 1j], 2), ([1 + 1j, 1 - 1j + 2e-8j], 2),
        ([1 + 1j, 1 - 1j + 5e-9], 2), ([-1, 1j], 2), ([1j, np.nan], 1),
        ([complex(np.nan, 0), np.nan], 1), ([-2, 5e-9j], 2), ([0, 0], 0),
        ([complex(np.nan, np.nan), -1j], 2)])
    def test_pairing_codes_match_pairing_check(self, energies, count):
        """All three classes, NaN among them, as pairing_check gives them."""
        E = np.array([energies], dtype=complex)
        code = pointint._pairing_codes(E, np.array([count]))[0]
        assert CLASSIFICATIONS[code] == pairing_check(E[0, :count], 1e-8)

    def test_empty_axis_gives_empty_sweep(self):
        sweep = pt_phase_sweep([], [1.0], [0.0, 1.0], [2.0])
        assert len(sweep) == 0
        assert list(sweep) == []
        assert sweep.energies.shape == (0, 2)

    def test_rows_are_rebuilt_equal_and_columns_read_only(self):
        sweep = pt_phase_sweep(np.linspace(-3, 3, 7), np.linspace(-3, 3, 7),
                               np.linspace(-2, 2, 5), np.linspace(-2, 2, 5))
        first, second = list(sweep), list(sweep)
        assert len(first) == len(sweep) > pointint._BLOCK
        for a, b in zip(first, second, strict=True):
            assert b[:7] == a[:7] and b.classification == a.classification
            assert [type(v) for v in b[:7]] == [type(v) for v in a[:7]]
            assert bits(b.energies) == bits(a.energies)
        assert [type(v) for v in first[0]] == [float] * 5 + [
            bool, int, np.ndarray, str]
        with pytest.raises(ValueError):
            sweep.phi[0] = 1.0

    def test_sweep_traced_peak_under_1mb(self):
        """The benchmark's 9^4 sweep traces 0.84 MB: its columns take 75 B
        a row, and each block's arrays are freed before the next."""
        axes = (np.linspace(-2, 1, 9), np.linspace(-1, 1, 9),
                np.linspace(-1.5, 1.5, 9), np.linspace(-1.5, 1.5, 9))
        pt_phase_sweep(*axes)   # first-call allocations out of the trace
        tracemalloc.start()
        try:
            pt_phase_sweep(*axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6
