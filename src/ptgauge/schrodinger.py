"""Matrix Schrödinger operators with constant non-Abelian gauge potential.

H_g = (p - A)^2 + V(x) with A a constant m x m matrix and V(x) a matrix
potential sampled on the staggered grid.  Since A is constant it commutes
with p, so the exact expansion is p^2 - 2 A p + A^2 + V.  The re-gauged
operator is built independently as H = p^2 + e^{-iAx} V(x) e^{iAx}; the
two discretizations agree up to O(h^2), which is what spectral_compare
measures.  The literal similarity U H_g U^{-1}, with the block-diagonal
gauge transform U = (+)_j e^{-iAx_j}, is spectrally exact by construction;
similarity_transform forms it for matrix/similarity_spectrum_exact only.

All three operators are block-tridiagonal and U is block-diagonal; they are
CSR arrays assembled from their block diagonals (linalg.block_tridiagonal),
with V called once per build, elementwise, on the nodes.  As x_{n-1-j} =
-x_j exactly, the blocks e^{iAx_j} of U^{-1} are the one stack of
exponentials e^{-iAx_j} reversed, bit for bit: one eigh of a Hermitian A
(real when -iA is), else one expm stack.  When A and every V(x_j) are
Hermitian, U is unitary and all three are Hermitian in exact arithmetic; H,
U H_g U^{-1} and the A^2 block of H_g are stored as Hermitian parts, once
the dropped skew part is checked to be rounding.  spectral_compare takes
the whole spectra by eig, as it classifies their pairing; lowest_mode_match
takes the lowest modes from linalg.lowest_modes (sparse shift-invert).  In
verify-all's example all three are real symmetric of bandwidth <= 3, and,
as Theta A Theta = -A and V is even, they commute with P_bold entry for
entry: eig, passed P_bold (extended_parity), solves each as its P_bold-even
and P_bold-odd halves of half the dimension, by the band driver dsbevd.

Tensor convention: grid index slowest, kron(grid_op, matrix_part).
The extended parity is P_bold = kron(parity_grid, Theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse

from .abelian import interior_test_vectors, weak_pseudo_hermiticity_residual
from .cartan import ThetaSignature, membership_residual
from .linalg import Grid1D, block_tridiagonal, eig, expm, grid_operator, \
    lowest_common, lowest_modes, match_spectra, operator_norm_estimate, \
    pairing_check, sample_on_nodes, stencil

PAIR_TOL = 1e-6   # conjugate-pairing tolerance of spectral_compare


@dataclass(frozen=True)
class MatrixPotential:
    """V(x), called once per sample, elementwise, on the nodes as (n, 1, 1)."""

    m: int
    V: Callable[[np.ndarray], np.ndarray]

    def sample(self, x: np.ndarray) -> np.ndarray:
        out = sample_on_nodes(self.V, x, (self.m, self.m))
        if not np.all(np.isfinite(out)):
            raise ValueError("matrix potential has non-finite entries")
        return out


@dataclass(frozen=True)
class ConstantGauge:
    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("gauge potential must be a square matrix")
        object.__setattr__(self, "A", A)

    @property
    def m(self) -> int:
        return self.A.shape[0]


def symmetry_audit(gauge: ConstantGauge, pot: MatrixPotential,
                   sig: ThetaSignature, grid: Grid1D) -> dict:
    """Residuals of the PT / parity-selfadjointness matrix identities, by name.

    A-side: A = i a with a in g_Theta, by membership_residual of a = -i A:
    A = -A^T and Theta A^H Theta = -A, which imply Theta A* Theta = A.
    V-side (max over nodes): Theta V*(-x) Theta = V(x),
    Theta V^H(-x) Theta = V(x), V = V^T.
    """
    th = sig.theta
    x = grid.nodes
    Vs = pot.sample(x)
    Vrev = Vs[::-1]
    return {
        "A_membership": membership_residual(-1j * gauge.A, sig),
        "V_pt": float(np.abs(th @ Vrev.conj() @ th - Vs).max()),
        "V_selfadj": float(np.abs(th @ np.conj(np.swapaxes(Vrev, 1, 2)) @ th
                                  - Vs).max()),
        "V_sym": float(np.abs(Vs - np.swapaxes(Vs, 1, 2)).max()),
    }


def _adjoint(X):   # conjugate transpose of sparse X, or of each trailing matrix
    return X.conj().T if scipy.sparse.issparse(X) else np.conj(np.swapaxes(X, -1, -2))


def _is_hermitian(X) -> bool:   # the rule of linalg.eig's Hermitian drivers
    return np.array_equal(X, _adjoint(X))


def _norm_inf(X):   # largest absolute row sum of sparse X, or of each trailing matrix
    return abs(X).sum(axis=-1).max(axis=-1)


def _hermitian_part(M, m: int, scale, mirror=_adjoint):
    """(M + M^H) / 2 of a matrix, or of each matrix of a stack, that is
    Hermitian in exact arithmetic and was formed by rounded products of m x m
    blocks whose inf-norms multiply to scale (one per matrix of a stack, shape
    (n, 1, 1); times 1 + |A x| for factors e^{-iAx}, off by up to eps |A x|).
    Raises RuntimeError if the dropped part exceeds 8 m eps scale, as for a U
    that is not unitary.  mirror np.conj gives the real part of a real M."""
    worst = (abs(M - mirror(M)) / (16 * m * np.finfo(float).eps * scale)).max()
    if not worst <= 1:
        raise RuntimeError(f"the part of a product dropped as rounding is "
                           f"{worst:.3g} times its rounding bound")
    return (M + mirror(M)) / 2


def _exponentials(A, x):
    """The stack e^{-iAx_j}, (n, m, m): W diag(e^{-i lam x_j}) W^H from one
    eigh A = W diag(lam) W^H of an A equal to A^H entry for entry (real when
    -iA is), else one expm stack, as such an A may be defective."""
    if not _is_hermitian(A):
        return expm(-1j * A * x[:, None, None])
    import scipy.linalg   # loaded by .linalg; numpy's own LAPACK adds 0.5 MB RSS
    lam, W = scipy.linalg.eigh(A)
    U = (W * np.exp(-1j * lam * x[:, None, None])) @ W.conj().T
    scale = 1 + np.abs(x[:, None, None]) * _norm_inf(A)
    return U if A.real.any() else _hermitian_part(U, len(A), scale, np.conj).real


def _assemble(gauge: ConstantGauge, pot: MatrixPotential, grid: Grid1D):
    """H_g, the samples V(x_j), and whether A and every V(x_j) are Hermitian."""
    m = gauge.m
    if pot.m != m:
        raise ValueError("gauge and potential dimensions differ")
    A = gauge.A
    Vs = pot.sample(grid.nodes)
    hermitian = _is_hermitian(A) and _is_hermitian(Vs)
    A2 = A @ A
    if hermitian and not _is_hermitian(A2):
        A2 = _hermitian_part(A2, m, _norm_inf(A) ** 2)
    # the blocks of ((L (x) I - 2 p (x) A) + I (x) A^2) + V, p without diagonal
    (p_lo, _, p_up), (L_lo, L_d, L_up) = (stencil(grid, "momentum"),
                                          stencil(grid, "second_derivative"))
    I = np.eye(m)
    H_g = block_tridiagonal(L_lo * I - 2 * (p_lo * A), (L_d * I + A2) + Vs,
                            L_up * I - 2 * (p_up * A))
    return H_g, Vs, hermitian


def build_gauged(gauge: ConstantGauge, pot: MatrixPotential,
                 grid: Grid1D) -> scipy.sparse.csr_array:
    """H_g = p^2 - 2 A p + A^2 + V, the expansion of (p - A)^2 + V."""
    return _assemble(gauge, pot, grid)[0]


@dataclass(frozen=True)
class RegaugeResult:
    grid: Grid1D
    H_g: scipy.sparse.csr_array
    H: scipy.sparse.csr_array          # direct build p^2 + e^{-iAx} V e^{iAx}


def build_and_regauge(gauge: ConstantGauge, pot: MatrixPotential,
                      grid: Grid1D) -> RegaugeResult:
    H_g, Vs, hermitian = _assemble(gauge, pot, grid)
    m, x, A = gauge.m, grid.nodes, gauge.A

    # e^{-iAx_j} at every node; as x_{n-1-j} = -x_j, reversed it is e^{iAx_j}
    U_blocks = _exponentials(A, x)
    Vt_blocks = U_blocks @ Vs @ U_blocks[::-1]
    if hermitian:   # then U is unitary
        scale = _norm_inf(U_blocks).max() ** 2 * (1 + np.abs(x) * _norm_inf(A))
        Vt_blocks = _hermitian_part(
            Vt_blocks, m, (scale * _norm_inf(Vs))[:, None, None])
    L_lo, L_d, L_up = stencil(grid, "second_derivative")
    I = np.eye(m)
    H = block_tridiagonal(L_lo * I, L_d * I + Vt_blocks, L_up * I)
    return RegaugeResult(grid=grid, H_g=H_g, H=H)


def similarity_transform(res: RegaugeResult, gauge: ConstantGauge,
                         pot: MatrixPotential) -> scipy.sparse.csr_array:
    """U H_g U^{-1}, U = (+)_j e^{-iAx_j}, of res = build_and_regauge(gauge,
    pot, grid); its Hermitian part when A and every V(x_j) are Hermitian."""
    x, A = res.grid.nodes, gauge.A
    U_blocks = _exponentials(A, x)
    S = (block_tridiagonal(0, U_blocks, 0) @ res.H_g
         @ block_tridiagonal(0, U_blocks[::-1], 0))
    if _is_hermitian(A) and _is_hermitian(pot.sample(x)):   # U is unitary
        scale = _norm_inf(U_blocks).max() ** 2 * (1 + np.abs(x) * _norm_inf(A))
        S = _hermitian_part(S, gauge.m, scale.max() * _norm_inf(res.H_g))
    return S


@dataclass(frozen=True)
class SpectralCompareReport:
    max_match_dist: float        # max_k |lam_k - mu_k| / (1 + |lam_k|), lowest modes
    pairing_Hg: str
    pairing_H: str
    parity_residual: float       # weak-form P_bold-pseudo-Hermiticity of H_g
    eigenvalues_Hg: np.ndarray
    eigenvalues_H: np.ndarray


def match_distance(low1, low2) -> float:
    """max_k |lam_k - mu_k| / (1 + |lam_k|) over the matched pairs."""
    return float((match_spectra(low1, low2)
                  / (1 + np.abs(np.sort_complex(low1)))).max())


def extended_parity(grid: Grid1D,
                    sig: ThetaSignature) -> scipy.sparse.csr_array:
    """P_bold = kron(P, Theta) on grid (x) C^m: a signed permutation with
    P_bold^2 = I and no fixed point, as linalg.eig's parity argument takes."""
    return scipy.sparse.kron(grid_operator(grid, "parity"), sig.theta,
                             format="csr")


def spectral_compare(res: RegaugeResult, sig: ThetaSignature,
                     n_low: int) -> SpectralCompareReport:
    """Compare the lowest modes of H_g against the direct re-gauged build,
    both cut at a common pair-safe k >= n_low (linalg.lowest_common), from
    the whole spectra by eig, each split by P_bold where it commutes with
    it; the pairing classes of the whole spectra use the tolerance
    PAIR_TOL."""
    P_bold = extended_parity(res.grid, sig)
    e1 = eig(res.H_g, P_bold)
    e2 = eig(res.H, P_bold)
    low1, low2 = lowest_common(n_low, e1, e2)

    # block test vectors: scalar envelope times each coordinate direction
    Tb = np.kron(interior_test_vectors(res.grid), np.eye(sig.m))
    r_abs, = weak_pseudo_hermiticity_residual(res.H_g, [P_bold], Tb)
    r = r_abs / operator_norm_estimate(res.H_g)

    return SpectralCompareReport(
        max_match_dist=match_distance(low1, low2),
        pairing_Hg=pairing_check(e1, PAIR_TOL),
        pairing_H=pairing_check(e2, PAIR_TOL),
        parity_residual=r,
        eigenvalues_Hg=e1, eigenvalues_H=e2,
    )


def lowest_mode_match(res: RegaugeResult, n_low: int) -> float:
    """The max_match_dist of spectral_compare, from the lowest modes of H_g
    and H by sparse shift-invert (linalg.lowest_modes) instead of dense eig."""
    return match_distance(*lowest_common(
        n_low, lambda k: lowest_modes(res.H_g, k),
        lambda k: lowest_modes(res.H, k)))


def sample_audited_potential(sig: ThetaSignature,
                             rng: np.random.Generator) -> MatrixPotential:
    """Random V(x) satisfying the PT and selfadjointness audit by construction.

    Real part: Theta-diagonal blocks even in x, off blocks odd.
    Imaginary part: Theta-diagonal blocks odd, off blocks even.
    All blocks symmetric, so V = V^T.  An x^2 well keeps the spectrum
    discrete on the box.
    """
    m = sig.m
    diag = sig.mask > 0   # the Theta-diagonal blocks

    def draw(blocks):
        M = rng.standard_normal((m, m)) * 0.3
        return np.where(blocks, (M + M.T) / 2, 0.0)

    D_even, B_odd, Di_odd, Bi_even = draw(diag), draw(~diag), draw(diag), draw(~diag)

    def V(x):
        even = np.exp(-x**2)
        odd = x * np.exp(-x**2)
        return (x**2 * np.eye(m) + D_even * even + B_odd * odd
                + 1j * (Di_odd * odd + Bi_even * even))

    return MatrixPotential(m=m, V=V)
