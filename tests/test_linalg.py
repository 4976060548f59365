import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

from ptgauge.linalg import (
    Grid1D,
    eig,
    expm,
    grid_operator,
    indefinite_inner,
    lowest,
    lowest_common,
    match_spectra,
    operator_norm_estimate,
    pairing_check,
    smallest,
    worst_residual,
)

SIGMA_2 = np.array([[0, -1j], [1j, 0]])


def charpoly_roots(M):
    """Independent eigenvalue oracle: Faddeev-LeVerrier characteristic
    polynomial coefficients followed by numpy's polynomial root finder."""
    n = M.shape[0]
    coeffs = [1.0 + 0j]
    Mk = np.zeros((n, n), dtype=complex)
    for k in range(1, n + 1):
        Mk = M @ Mk + coeffs[-1] * M
        c = -np.trace(Mk) / k
        coeffs.append(c)
    return np.roots(coeffs)


class TestEig:
    def test_identity(self):
        assert np.allclose(eig(np.eye(3)), [1, 1, 1])

    def test_pauli_sigma2(self):
        assert np.allclose(eig(SIGMA_2), [-1, 1])

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        got = eig(M)
        want = np.sort_complex(charpoly_roots(M))
        assert match_spectra(got, want).max() <= 1e-8

    def test_deterministic_order(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        v = eig(M)
        order = np.lexsort((v.imag, v.real))
        assert np.array_equal(order, np.arange(len(v)))

    def test_rejects_nonfinite(self):
        M = np.eye(2)
        M[0, 0] = np.nan
        with pytest.raises(ValueError):
            eig(M)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig(np.ones((2, 3)))

    def test_rejects_nonfinite_sparse(self):
        M = scipy.sparse.csr_array(np.diag([1.0, np.inf]))
        with pytest.raises(ValueError):
            eig(M)


def _zgeev(M):
    """The general complex route, which eig took for every input before it
    chose drivers by structure."""
    return np.linalg.eigvals(np.asarray(M, dtype=complex))


def _assert_matches_zgeev(got, M):
    want = _zgeev(M)
    scale = 1 + np.abs(np.sort_complex(got))
    assert (match_spectra(got, want) <= 1e-12 * scale).all()


@pytest.fixture
def drivers(monkeypatch):
    """Records (driver, dtype) for each LAPACK call eig makes."""
    calls = []
    eigvalsh, eigvals = scipy.linalg.eigvalsh, np.linalg.eigvals

    def spy_h(A, **kw):
        calls.append(("eigvalsh", A.dtype))
        return eigvalsh(A, **kw)

    def spy_g(A):
        calls.append(("eigvals", A.dtype))
        return eigvals(A)

    monkeypatch.setattr(scipy.linalg, "eigvalsh", spy_h)
    monkeypatch.setattr(np.linalg, "eigvals", spy_g)
    return calls


def _random(n, seed, real=True):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return M if real else M + 1j * rng.standard_normal((n, n))


class TestEigDrivers:
    """eig picks its LAPACK driver by exact structure: Hermitian input goes
    to eigvalsh, other real input to real geev, the rest to complex geev.
    Each route must agree with the complex route to rounding."""

    def test_real_symmetric_in_real_arithmetic(self, drivers):
        X = _random(40, 1)
        S = (X + X.T) / 2
        got = eig(S.astype(complex))   # complex dtype, zero imaginary part
        assert drivers == [("eigvalsh", np.float64)]
        assert got.dtype == complex and not got.imag.any()
        _assert_matches_zgeev(got, S)

    def test_complex_hermitian(self, drivers):
        X = _random(40, 2, real=False)
        H = (X + X.conj().T) / 2
        got = eig(H)
        assert drivers == [("eigvalsh", np.complex128)]
        assert got.dtype == complex and not got.imag.any()
        _assert_matches_zgeev(got, H)

    def test_real_nonsymmetric_pairs_exactly(self, drivers):
        M = _random(30, 3)
        got = eig(M)
        assert drivers == [("eigvals", np.float64)]
        assert got.dtype == complex and got.imag.any()
        assert np.array_equal(np.sort_complex(got), np.sort_complex(got.conj()))
        _assert_matches_zgeev(got, M)

    def test_complex_general(self, drivers):
        M = _random(20, 4, real=False)
        got = eig(M)
        assert drivers == [("eigvals", np.complex128)]
        _assert_matches_zgeev(got, M)

    @pytest.mark.parametrize("real", [True, False])
    def test_one_ulp_off_hermitian_takes_general_path(self, drivers, real):
        X = _random(30, 5, real=real)
        H = (X + X.conj().T) / 2
        re = H[0, 1].real
        H[0, 1] += np.nextafter(re, np.inf) - re   # one ulp up, real part
        got = eig(H)
        assert drivers == [("eigvals", np.float64 if real else np.complex128)]
        _assert_matches_zgeev(got, H)

    def test_sparse_and_dense_identical(self):
        X = _random(24, 6, real=False)
        Y = _random(24, 7)
        for M in ((X + X.conj().T) / 2, (Y + Y.T) / 2 + 0j, Y, Y + 0j, X,
                  np.eye(24, dtype=int)):
            dense, sparse = eig(M), eig(scipy.sparse.csr_array(M))
            assert dense.dtype == sparse.dtype == complex
            assert np.array_equal(dense, sparse)


class TestExpm:
    def test_hermitian_oracle(self):
        """Cross-check against exponentiation through the spectral theorem."""
        rng = np.random.default_rng(7)
        X = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        H = (X + X.conj().T) / 2
        vals, vecs = np.linalg.eigh(H)
        want = vecs @ np.diag(np.exp(vals)) @ vecs.conj().T
        assert np.abs(expm(H) - want).max() <= 1e-12 * np.abs(want).max()

    def test_nilpotent_closed_form(self):
        N = np.zeros((3, 3))
        N[0, 1] = N[1, 2] = 1.0
        want = np.eye(3) + N + N @ N / 2
        assert np.abs(expm(N) - want).max() <= 1e-14

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            expm(np.diag([1e6, 0.0]))

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_stack_equals_each_slice(self, m):
        rng = np.random.default_rng(m)
        X = rng.standard_normal((4, 3, m, m, 2)) @ np.array([1, 1j])
        E = expm(X)
        assert E.shape == X.shape
        assert all(np.array_equal(E[i, j], expm(X[i, j]))
                   for i, j in np.ndindex(4, 3))

    def test_overflow_in_one_slice_raises(self):
        X = np.zeros((3, 2, 2))
        X[1] = np.diag([1e6, 0.0])
        with pytest.raises(OverflowError):
            expm(X)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_rejects_nonsquare_stacks(self, shape):
        with pytest.raises(ValueError):
            expm(np.zeros(shape))


class TestGrid:
    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=1e-3, max_value=2.0))
    def test_nodes_symmetric_and_nonzero(self, half, h):
        g = Grid1D(half_count=half, spacing=h)
        x = g.nodes
        assert len(x) == g.size == 2 * half
        assert np.array_equal(x[::-1], -x)
        assert np.abs(x).min() > 0

    def test_from_box(self):
        assert Grid1D.from_box(8.0, 0.05) == Grid1D(half_count=160, spacing=0.05)
        assert Grid1D.from_box(0.11, 0.2).half_count == 1

    @pytest.mark.parametrize("half_width, spacing, name", [
        (6.0, 0.0, "spacing"), (6.0, -0.1, "spacing"), (6.0, np.inf, "spacing"),
        (6.0, np.nan, "spacing"), (np.inf, 0.1, "half_width"),
        (np.nan, 0.1, "half_width"), (0.01, 0.2, "half_width"),
        (0.1, 0.2, "half_width"), (1e308, 1e-10, "half_width")])
    def test_from_box_names_the_bad_argument(self, half_width, spacing, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            Grid1D.from_box(half_width, spacing)

    def test_parity_is_exact_involution(self):
        g = Grid1D(half_count=17, spacing=0.3)
        P = grid_operator(g, "parity")
        assert np.array_equal((P @ P).toarray(), np.eye(g.size))

    def test_sign_parity_anticommute_exactly(self):
        g = Grid1D(half_count=9, spacing=0.11)
        P = grid_operator(g, "parity")
        R = grid_operator(g, "sign")
        assert np.abs((P @ R + R @ P).toarray()).max() == 0.0

    def test_momentum_antihermitian_structure(self):
        g = Grid1D(half_count=20, spacing=0.1)
        p = grid_operator(g, "momentum").toarray()
        assert np.abs(p - p.conj().T).max() <= 1e-14

    def test_second_derivative_spd(self):
        g = Grid1D(half_count=20, spacing=0.1)
        L = grid_operator(g, "second_derivative").toarray()
        vals = np.linalg.eigvalsh(L.real)
        assert vals.min() > 0

    def test_oscillator_spectrum(self):
        """Harmonic oscillator oracle: p^2 + x^2 has levels 1, 3, 5, ..."""
        g = Grid1D.from_box(8.0, 0.05)
        L = grid_operator(g, "second_derivative").toarray()
        H = L + np.diag(g.nodes**2)
        vals = np.sort(np.linalg.eigvalsh(H.real))[:5]
        assert np.abs(vals - np.array([1, 3, 5, 7, 9])).max() < 1e-2

    def test_block_kron_ordering(self):
        g = Grid1D(half_count=2, spacing=0.5)
        P = grid_operator(g, "parity", block_dim=2).toarray()
        # node j maps to node -j with the 2x2 block untouched
        v = np.zeros(8)
        v[0] = 1.0
        assert np.argmax(np.abs(P @ v)) == 6

    def test_multiply_requires_func(self):
        g = Grid1D(half_count=2, spacing=0.5)
        with pytest.raises(ValueError):
            grid_operator(g, "multiply")

    def test_unknown_kind(self):
        g = Grid1D(half_count=2, spacing=0.5)
        with pytest.raises(ValueError):
            grid_operator(g, "hamiltonian")


class TestIndefiniteInner:
    def test_reduces_to_l2(self):
        g = Grid1D(half_count=8, spacing=0.25)
        eye = grid_operator(g, "multiply", func=lambda x: 1.0)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        val = indefinite_inner(f, f, eye, np.ones(g.size), g.spacing)
        want = g.spacing * np.vdot(f, f)
        assert abs(val - want) <= 1e-12 * abs(want)

    def test_direct_summation_oracle(self):
        g = Grid1D(half_count=4, spacing=0.5)
        J = grid_operator(g, "parity")
        w = 1.0 + g.nodes**2
        rng = np.random.default_rng(3)
        f = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        gv = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        Jd = J.toarray()
        want = g.spacing * sum(
            w[j] * (Jd @ gv)[j] * np.conj(f[j]) for j in range(g.size))
        assert abs(indefinite_inner(f, gv, J, w, g.spacing) - want) <= 1e-12

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry_when_wj_hermitian(self, seed):
        g = Grid1D(half_count=6, spacing=0.3)
        J = grid_operator(g, "parity")
        # even weight makes W J Hermitian
        w = 1.0 + g.nodes**2
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        h = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        a = indefinite_inner(f, h, J, w, g.spacing)
        b = indefinite_inner(h, f, J, w, g.spacing)
        assert abs(a - np.conj(b)) <= 1e-10 * max(1.0, abs(a))

    def test_rejects_nonpositive_weight(self):
        g = Grid1D(half_count=4, spacing=0.5)
        J = grid_operator(g, "parity")
        f = np.ones(g.size)
        with pytest.raises(ValueError):
            indefinite_inner(f, f, J, g.nodes, g.spacing)  # changes sign


def _pairing_reference(eigenvalues, tol):
    """The list search that pairing_check replaced, as the oracle."""
    vals = np.asarray(eigenvalues, dtype=complex)
    rest = list(vals[~(np.abs(vals.imag) <= tol)])
    if not rest:
        return "all_real"
    while rest:
        lam = rest.pop(0)
        dists = [abs(lam - np.conj(mu)) for mu in rest]
        if not (dists and min(dists) <= tol):
            return "unpaired"
        rest.pop(int(np.argmin(dists)))
    return "conjugate_paired"


def _matching_reference(a, b):
    """The list search that match_spectra replaced, as the oracle."""
    a = np.sort_complex(np.asarray(a, dtype=complex))
    b = list(np.sort_complex(np.asarray(b, dtype=complex)))
    dists = np.empty(len(a))
    for i, lam in enumerate(a):
        k = int(np.argmin([abs(lam - mu) for mu in b]))
        dists[i] = abs(lam - b.pop(k))
    return dists


# values on a coarse lattice, so that exact ties and duplicates are common
lattice = st.lists(st.builds(complex, st.integers(-2, 2), st.integers(-2, 2)),
                   max_size=10)


class TestPairing:
    def test_real_spectrum(self):
        assert pairing_check([1.0, 2.0, -0.5], 1e-8) == "all_real"

    def test_conjugate_pairs(self):
        assert pairing_check([1 + 2j, 1 - 2j, 3.0], 1e-8) == "conjugate_paired"

    def test_unpaired_detected(self):
        assert pairing_check([1 + 2j, 3.0], 1e-8) == "unpaired"

    @given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False),
                    min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_conjugate_closed_sets_never_unpaired(self, vals):
        closed = list(vals) + [np.conj(v) for v in vals]
        assert pairing_check(closed, 1e-9) in ("all_real", "conjugate_paired")

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            pairing_check([1.0], 0.0)

    @given(lattice, st.floats(min_value=-1e-3, max_value=1e-3),
           st.sampled_from([1e-8, 0.5, 1.0, 2.5]), st.booleans())
    @settings(max_examples=200)
    def test_matches_list_reference(self, vals, shift, tol, close):
        """Ties and duplicates pair as the list search paired them."""
        vals = np.array(vals + [np.conj(v) for v in vals] if close else vals,
                        dtype=complex)
        vals[::3] += shift
        assert pairing_check(vals, tol) == _pairing_reference(vals, tol)

    @pytest.mark.parametrize("bad", [complex(1, np.nan), complex(np.nan, 2)])
    def test_nonreal_nan_is_unpaired(self, bad):
        """Wherever it stands.  The list search called the last spectrum
        conjugate_paired: it paired the first 1 + 2i with the NaN."""
        for vals in ([1 + 2j, 1 - 2j, bad], [1 + 2j, bad, 1 - 2j],
                     [1 + 2j, 1 - 2j, 1 + 2j, bad]):
            assert pairing_check(vals, 1e-8) == "unpaired"


class TestMatching:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = a[rng.permutation(6)]
        assert match_spectra(a, b).max() == 0.0

    def test_known_distance(self):
        d = match_spectra([0.0, 1.0], [0.1, 1.0])
        assert abs(d.max() - 0.1) <= 1e-14

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            match_spectra([1.0], [1.0, 2.0])

    @given(st.data(), lattice, st.floats(min_value=-1e-3, max_value=1e-3))
    @settings(max_examples=200)
    def test_matches_list_reference(self, data, a, shift):
        """Same matches, first of a tie, and the same distances bit for bit."""
        b = data.draw(st.lists(st.builds(complex, st.integers(-2, 2),
                                         st.integers(-2, 2)),
                               min_size=len(a), max_size=len(a)))
        a = np.array(a, dtype=complex)
        a[::2] += shift * (1 + 1j)
        assert np.array_equal(match_spectra(a, b), _matching_reference(a, b))

    def test_infinite_distances_use_free_values(self):
        """When every free distance is inf, the first free value is taken,
        not an already matched one."""
        assert np.array_equal(match_spectra([0, np.inf], [0, 1]),
                              _matching_reference([0, np.inf], [0, 1]))


class TestLowest:
    def test_orders_by_real_part_then_abs_imag(self):
        e = [3.0, 1 - 2j, 0.5, 1 + 2j, 1 + 1j, 1 - 1j]
        assert list(lowest(e, 6)) == [0.5, 1 - 1j, 1 + 1j, 1 - 2j, 1 + 2j, 3.0]

    def test_cut_never_splits_a_conjugate_pair(self):
        """Rounding puts a real value between the members of a pair, so a
        cut by real part alone keeps one member of it."""
        e = np.array([0.0, 4.013 + 1.422j, 4.013 + 1e-13,
                      4.013 + 2e-13 - 1.422j, 6.0])
        assert len(e[np.argsort(e.real)[:2]]) == 2   # the split cut
        got = lowest(e, 2)
        assert len(got) == 4
        assert pairing_check(got, 1e-9) == "conjugate_paired"

    def test_near_real_values_count_as_real(self):
        # |Im| <= 1e-9 (1 + |lambda|): no partner is needed, the cut stays
        assert len(lowest([1.0 + 1e-12j, 2.0, 3.0 - 1e-12j], 1)) == 1

    def test_unpartnered_value_does_not_extend_the_cut(self):
        assert len(lowest([1.0 + 1j, 2.0, 3.0 - 1j], 1)) == 1

    @given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False),
                    min_size=1, max_size=8),
           st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=60)
    def test_conjugate_closed_sets_stay_closed(self, vals, seed, k):
        """Partners differ by rounding-sized perturbations; the kept set is
        conjugate-paired and holds the k lowest real parts."""
        rng = np.random.default_rng(seed)
        vals = np.asarray(vals)
        vals = vals[np.abs(vals.imag) > 1e-6]
        partners = np.conj(vals) * (1 + 1e-14 * rng.standard_normal(len(vals)))
        e = np.concatenate([vals, partners, rng.uniform(-10, 10, 3)])
        got = lowest(e, k)
        assert len(got) >= min(k, len(e))
        assert pairing_check(got, 1e-9) != "unpaired"
        assert np.abs(np.sort(got.real) - np.sort(e.real)[:len(got)]).max() \
            <= 1e-12

    def test_common_cut_extends_every_spectrum(self):
        a = [0.0, 1 + 1j, 1 - 1j, 3.0]
        b = [0.0, 0.5, 1.2, 4.0]
        low_a, low_b = lowest_common(2, a, b)
        assert len(low_a) == len(low_b) == 3
        # a callable source is asked for the common cut
        asked = []
        low_a, low_c = lowest_common(
            2, a, lambda j: asked.append(j) or lowest(b, j))
        assert asked == [2, 3] and len(low_c) == 3

    def test_common_cut_rejects_a_short_spectrum(self):
        with pytest.raises(ValueError):
            lowest_common(2, [0.0, 1 + 1j, 1 - 1j], [0.0, 1.0])


def test_norm_estimate_matches_svd():
    """A complex 40 x 40 matrix with singular values 4, 1, 0.99, ...: the
    fixed 30 power steps on M^H M shrink the rest by (1/16)^30."""
    rng = np.random.default_rng(9)
    Q1, _ = np.linalg.qr(rng.standard_normal((40, 40))
                         + 1j * rng.standard_normal((40, 40)))
    Q2, _ = np.linalg.qr(rng.standard_normal((40, 40))
                         + 1j * rng.standard_normal((40, 40)))
    M = Q1 @ np.diag(np.r_[4.0, np.linspace(1.0, 0.1, 39)]) @ Q2.conj().T
    est = operator_norm_estimate(M)
    exact = np.linalg.norm(M, 2)
    assert abs(est - exact) <= 1e-12 * exact


@pytest.mark.parametrize("M", [np.diag([1e200, 1.0]),
                               scipy.sparse.diags_array([1e200, 1.0])],
                         ids=["dense", "sparse"])
def test_norm_estimate_overflow_raises(M):
    """M^H M v overflows; the estimate used to come out NaN (or 0.0)."""
    with pytest.raises(OverflowError):
        operator_norm_estimate(M)


def test_norm_estimate_nan_entry_gives_nan():
    assert np.isnan(operator_norm_estimate(np.diag([np.nan, 1.0])))


class TestWorstResidual:
    def test_exact_max_and_empty(self):
        assert worst_residual([0.1, 3e-12, 0.25]) == 0.25
        assert worst_residual([]) == 0.0
        assert worst_residual(x for x in (1e-3, 2e-3)) == 2e-3

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_anywhere_propagates(self, position):
        values = [0.5, 1.0, 2.0]
        values[position] = np.nan
        # Python's max() returns 2.0 here unless the NaN comes first
        assert np.isnan(worst_residual(values))


class TestSmallest:
    def test_exact_min_and_empty(self):
        assert smallest([0.1, 3e-12, 0.25]) == 3e-12
        assert smallest([]) == np.inf

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_anywhere_propagates(self, position):
        values = [0.5, 1.0, 2.0]
        values[position] = np.nan
        # min(np.inf, nan) is inf: Python's min() drops this NaN
        assert np.isnan(smallest(values))
