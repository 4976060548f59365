import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from ptgauge import jaynes
from ptgauge.cartan import GaugeAlgebraElement, ThetaSignature, \
    make_element, random_element
from ptgauge.jaynes import (
    LevelEnergies,
    build_jc,
    jc_equivalence_check,
    jc_pt_check,
    nilpotent_split,
)
from ptgauge.linalg import Grid1D, eig, match_spectra, pairing_check

SIG = ThetaSignature(1, 1)


def _el(alpha=0.3):
    return make_element(SIG, np.zeros((1, 1)), [[alpha]], np.zeros((1, 1)))


def _ladder(n_max):
    """Dense d with d|n> = sqrt(n)|n-1>, cut at n_max."""
    n = np.arange(1, n_max + 1)
    d = np.zeros((n_max + 1, n_max + 1))
    d[n - 1, n] = np.sqrt(n)
    return d


def _kronecker_build(c, omega, n_max):
    """The dense oracle 2 [N (x) I + sqrt2 (d^H (x) c + d (x) c^T) + I (x)
    omega], with N = d^H d, summed from Kronecker products."""
    d = _ladder(n_max)
    m = c.shape[0]
    return 2 * (np.kron(d.T @ d, np.eye(m))
                + np.sqrt(2) * (np.kron(d.T, c) + np.kron(d, c.T))
                + np.kron(np.eye(n_max + 1), omega.matrix))


class TestKroneckerOracle:
    def test_truncated_commutator(self):
        """[d, d^H] = I except for the hard-cut top level."""
        d = _ladder(6)
        C = d @ d.T - d.T @ d
        want = np.eye(7)
        want[6, 6] = -6.0
        assert np.abs(C - want).max() <= 1e-13

    @pytest.mark.parametrize("sig_pq", [(1, 1), (2, 1), (2, 2)])
    def test_csr_build_matches(self, sig_pq):
        """The build is one CSR array of at most three m x m blocks a block
        row, with no stored exact zero.  Off the diagonal it equals the
        Kronecker sum bit for bit; on it, it is exactly 2 (n + omega_j),
        where the oracle's N = d^H d holds sqrt(n) sqrt(n) rounded."""
        sig = ThetaSignature(*sig_pq)
        c = nilpotent_split(
            random_element(sig, np.random.default_rng(7), 0.3))
        omega = LevelEnergies(omega=np.linspace(0.0, 1.3, sig.m) ** 2)
        for n_max in range(2, 19):
            csr = build_jc(c, omega, n_max)
            assert isinstance(csr, scipy.sparse.csr_array)
            assert np.all(csr.data != 0)
            assert csr.nnz <= 3 * sig.m**2 * (n_max + 1)
            H = csr.toarray()
            want = _kronecker_build(c, omega, n_max)
            off = ~np.eye(len(H), dtype=bool)
            assert np.array_equal(H[off], want[off])
            n = np.repeat(np.arange(n_max + 1), sig.m)
            assert np.array_equal(
                H.diagonal(), 2 * (n + np.tile(omega.omega, n_max + 1)))


class TestSplit:
    @given(st.integers(min_value=0, max_value=5000),
           st.sampled_from([(1, 1), (2, 1), (2, 2)]))
    @settings(max_examples=40)
    def test_reconstruction_and_nilpotency(self, seed, sig_pq):
        sig = ThetaSignature(*sig_pq)
        el = random_element(sig, np.random.default_rng(seed))
        c = nilpotent_split(el)
        assert np.abs(c - np.triu(c, k=1)).max() == 0.0
        assert np.abs((c - c.T) - el.matrix).max() <= 1e-13
        assert np.abs(np.linalg.matrix_power(c, sig.m)).max() == 0.0

    def test_non_antisymmetric_rejected(self):
        """c - c^T cannot rebuild a matrix that is not antisymmetric."""
        el = GaugeAlgebraElement(SIG, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="split reconstruction failed"):
            nilpotent_split(el)


class TestBuild:
    def test_decoupled_spectrum_exact(self):
        n_max = 9
        omega = LevelEnergies(omega=np.array([0.0, 0.7]))
        H = build_jc(nilpotent_split(_el(0.0)), omega, n_max)
        want = np.sort([2 * (n + w) for n in range(n_max + 1)
                        for w in (0.0, 0.7)])
        got = np.sort(eig(H).real)
        assert np.abs(got - want).max() <= 1e-12

    def test_polariton_block_oracle(self):
        """Closed-form 2x2 block diagonalization for the two-level case.

        With coupling d^H (x) c + d (x) c^T the invariant pairs are
        (|n+1, lower>, |n, upper>); |0, lower> and the truncated top state
        |n_max, upper> stay uncoupled.
        """
        alpha, delta, n_max = 0.4, 0.6, 8
        omega = LevelEnergies(omega=np.array([0.0, delta]))
        H = build_jc(nilpotent_split(_el(alpha)), omega, n_max)
        expected = [0.0, 2 * n_max + 2 * delta]
        for n in range(n_max):
            g = 2 * np.sqrt(2) * alpha * np.sqrt(n + 1)
            block = np.array([[2 * (n + 1), g], [g, 2 * n + 2 * delta]])
            expected.extend(np.linalg.eigvalsh(block))
        got = np.sort(eig(H).real)
        assert np.abs(got - np.sort(expected)).max() <= 1e-10

    def test_omega_length_checked(self):
        with pytest.raises(ValueError):
            build_jc(nilpotent_split(_el()), LevelEnergies(omega=np.zeros(3)), 5)

    def test_minimum_truncation(self):
        with pytest.raises(ValueError):
            build_jc(nilpotent_split(_el()), LevelEnergies(omega=np.zeros(2)), 1)


class TestPt:
    @given(st.floats(min_value=-1, max_value=1),
           st.floats(min_value=-1, max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_pt_symmetry(self, alpha, delta):
        omega = LevelEnergies(omega=np.array([0.0, delta]))
        H = build_jc(nilpotent_split(_el(alpha)), omega, 6)
        assert jc_pt_check(H, SIG) <= 1e-12 * max(1.0, abs(H).max())

    def test_broken_symmetry_detected(self):
        """Negative control: a complex level energy breaks PT."""
        omega = LevelEnergies(omega=np.array([0.0, 0.5]))
        H = build_jc(nilpotent_split(_el(0.3)), omega, 6)
        H = H + 1j * scipy.sparse.diags_array(np.arange(H.shape[0], dtype=float))
        assert jc_pt_check(H, SIG) > 1e-12 * max(1.0, abs(H).max())

    @pytest.mark.parametrize("sig_pq", [(1, 1), (2, 1), (2, 2)])
    def test_sparse_and_dense_input_agree(self, sig_pq):
        """The residual over the stored entries of the CSR build is the
        residual over every entry of its dense copy, broken or not."""
        sig = ThetaSignature(*sig_pq)
        c = nilpotent_split(
            random_element(sig, np.random.default_rng(11), 0.3))
        omega = LevelEnergies(omega=np.linspace(0.0, 1.3, sig.m))
        H = build_jc(c, omega, 6)
        broken = H + 1j * scipy.sparse.eye_array(H.shape[0])
        for M in (H, broken):
            assert jc_pt_check(M, sig) == jc_pt_check(M.toarray(), sig)
        assert jc_pt_check(broken, sig) == 2.0

    def test_dimension_must_be_a_multiple_of_m(self):
        with pytest.raises(ValueError, match="not a multiple of m = 2"):
            jc_pt_check(np.eye(7), SIG)


class TestEquivalence:
    def test_dual_build_two_level(self):
        n_max = 8
        grid = Grid1D.from_box(np.sqrt(2 * n_max) + 4.2, 0.05)
        omega = LevelEnergies(omega=np.array([0.0, 0.5]))
        out = jc_equivalence_check(_el(0.3), omega, grid, n_max)
        assert out.max_dev <= 5e-2
        assert out.truncation_shift < 1e-6

    def test_one_split_and_one_fock_build_per_cut(self, monkeypatch):
        """a is split once, and the Fock model is built once at n_max and
        once at ceil(1.5 n_max), both from that split."""
        splits, builds = [], []

        def split_spy(el):
            splits.append(nilpotent_split(el))
            return splits[-1]

        def build_spy(c, omega, n):
            builds.append((c, n))
            return build_jc(c, omega, n)

        monkeypatch.setattr(jaynes, "nilpotent_split", split_spy)
        monkeypatch.setattr(jaynes, "build_jc", build_spy)
        n_max = 8
        grid = Grid1D.from_box(np.sqrt(2 * n_max) + 4.2, 0.05)
        omega = LevelEnergies(omega=np.array([0.0, 0.5]))
        jc_equivalence_check(_el(0.3), omega, grid, n_max)
        assert len(splits) == 1
        assert [n for _, n in builds] == [8, 12]
        assert all(c is splits[0] for c, _ in builds)

    @pytest.mark.parametrize("sig_pq", [(1, 1), (2, 1), (2, 2)])
    def test_sign_of_a_leaves_the_fock_spectrum(self, sig_pq):
        """Conjugation by diag((-1)^n) (x) I maps d to -d, so the builds
        from a and -a are similar; a level-asymmetric omega keeps the
        coupling convention visible."""
        sig = ThetaSignature(*sig_pq)
        el = random_element(sig, np.random.default_rng(5), 0.3)
        omega = LevelEnergies(omega=np.linspace(0.0, 1.3, sig.m) ** 2)
        minus = GaugeAlgebraElement(sig, -el.matrix)
        spectra = [eig(build_jc(nilpotent_split(e), omega, 10))
                   for e in (el, minus)]
        dev = match_spectra(*spectra).max()
        assert dev <= 1e-12 * np.abs(spectra[0]).max()

    def test_three_level_cut_keeps_conjugate_pairs(self):
        """Signature (2, 1): the lowest six modes end inside a conjugate
        pair near 3.99 +- 1.46i.  A cut by real part alone keeps whichever
        member rounding puts first, and the grid and Fock builds kept
        different ones (a deviation of 2.91 = 2 Im); the pair-safe cut
        keeps both members on every side."""
        sig = ThetaSignature(2, 1)
        el = random_element(sig, np.random.default_rng(3), 0.3)
        omega = LevelEnergies(omega=np.array([0.0, 0.5, 1.0]))
        n_max = 18
        grid = Grid1D.from_box(np.sqrt(2 * n_max) + 4.2, 0.045)
        out = jc_equivalence_check(el, omega, grid, n_max)
        assert out.truncation_shift < 1e-6
        assert out.max_dev <= 5e-2
        for low in (out.grid_eigenvalues, out.fock_eigenvalues):
            assert len(low) == 7
            assert pairing_check(low, 1e-6) == "conjugate_paired"

    def test_small_box_rejected(self):
        grid = Grid1D.from_box(3.0, 0.05)
        omega = LevelEnergies(omega=np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            jc_equivalence_check(_el(0.3), omega, grid, 12)
