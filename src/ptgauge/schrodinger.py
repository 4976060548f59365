"""Matrix Schrödinger operators with constant non-Abelian gauge potential.

H_g = (p - A)^2 + V(x) with A a constant m x m matrix and V(x) a matrix
potential sampled on the staggered grid.  Since A is constant it commutes
with p, so the exact expansion is p^2 - 2 A p + A^2 + V.  The re-gauged
operator is built independently as H = p^2 + e^{-iAx} V(x) e^{iAx}; the
two discretizations agree up to O(h^2), which is what spectral_compare
measures.  The literal similarity U H_g U^{-1}, with the block-diagonal
gauge transform U = (+)_j e^{-iAx_j}, is spectrally exact by construction;
it feeds the similarity check of the verification suite.

All three operators are block-tridiagonal and U is block-diagonal; they
are assembled as scipy.sparse CSR arrays.  spectral_compare takes the whole
spectra by dense eig, because it classifies their conjugate pairing;
lowest_mode_match, which reads only the lowest modes, takes them from
linalg.lowest_modes (certified sparse shift-invert) and never densifies.
eig picks the LAPACK driver by exact structure: in verify-all's default
example H_g is real symmetric and goes to dsyevr, while H and U H_g U^{-1}
are real and go to dgeev.

Tensor convention: grid index slowest, kron(grid_op, matrix_part).
The extended parity is P_bold = kron(parity_grid, Theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse

from .abelian import interior_test_vectors, weak_pseudo_hermiticity_residual
from .cartan import ThetaSignature
from .linalg import Grid1D, eig, expm, grid_operator, lowest_common, \
    lowest_modes, match_spectra, operator_norm_estimate, pairing_check

PAIR_TOL = 1e-6   # conjugate-pairing tolerance of spectral_compare


@dataclass(frozen=True)
class MatrixPotential:
    m: int
    V: Callable[[float], np.ndarray]

    def sample(self, x: np.ndarray) -> np.ndarray:
        out = np.empty((len(x), self.m, self.m), dtype=complex)
        for j, xj in enumerate(x):
            Vj = np.asarray(self.V(xj), dtype=complex)
            if Vj.shape != (self.m, self.m):
                raise ValueError(f"V({xj}) has shape {Vj.shape}, expected "
                                 f"({self.m}, {self.m})")
            out[j] = Vj
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

    A-side: Theta A* Theta = A, Theta A^H Theta = -A, A = -A^T.
    V-side (max over nodes): Theta V*(-x) Theta = V(x),
    Theta V^H(-x) Theta = V(x), V = V^T.
    """
    A = gauge.A
    th = sig.theta
    x = grid.nodes
    Vs = pot.sample(x)
    Vrev = Vs[::-1]
    return {
        "A_pt": float(np.abs(th @ A.conj() @ th - A).max()),
        "A_selfadj": float(np.abs(th @ A.conj().T @ th + A).max()),
        "A_antisym": float(np.abs(A + A.T).max()),
        "V_pt": float(np.abs(th @ Vrev.conj() @ th - Vs).max()),
        "V_selfadj": float(np.abs(th @ np.conj(np.swapaxes(Vrev, 1, 2)) @ th
                                  - Vs).max()),
        "V_sym": float(np.abs(Vs - np.swapaxes(Vs, 1, 2)).max()),
    }


def _block_diagonal(blocks: np.ndarray) -> scipy.sparse.csr_array:
    """The operator with the m x m blocks[j] on its j-th diagonal block."""
    n, m, _ = blocks.shape
    return scipy.sparse.csr_array(scipy.sparse.bsr_array(
        (blocks, np.arange(n), np.arange(n + 1)), shape=(n * m, n * m)))


def build_gauged(gauge: ConstantGauge, pot: MatrixPotential,
                 grid: Grid1D) -> scipy.sparse.csr_array:
    """H_g = p^2 - 2 A p + A^2 + V, the expansion of (p - A)^2 + V."""
    m = gauge.m
    if pot.m != m:
        raise ValueError("gauge and potential dimensions differ")
    A = gauge.A
    p = grid_operator(grid, "momentum")
    H_g = (grid_operator(grid, "second_derivative", block_dim=m)
           - 2 * scipy.sparse.kron(p, A)
           + scipy.sparse.kron(scipy.sparse.eye_array(grid.size), A @ A)
           + _block_diagonal(pot.sample(grid.nodes)))
    return scipy.sparse.csr_array(H_g)


@dataclass(frozen=True)
class RegaugeResult:
    grid: Grid1D
    H_g: scipy.sparse.csr_array
    H: scipy.sparse.csr_array          # direct build p^2 + e^{-iAx} V e^{iAx}
    H_similar: scipy.sparse.csr_array  # U H_g U^{-1}


def build_and_regauge(gauge: ConstantGauge, pot: MatrixPotential,
                      grid: Grid1D) -> RegaugeResult:
    H_g = build_gauged(gauge, pot, grid)
    m = gauge.m
    x = grid.nodes
    A = gauge.A
    Vs = pot.sample(x)

    U_blocks = np.empty((len(x), m, m), dtype=complex)
    Ui_blocks = np.empty_like(U_blocks)
    Vt_blocks = np.empty_like(U_blocks)
    for j, xj in enumerate(x):
        U_blocks[j] = expm(-1j * A * xj)
        Ui_blocks[j] = expm(1j * A * xj)
        Vt_blocks[j] = U_blocks[j] @ Vs[j] @ Ui_blocks[j]
    H = scipy.sparse.csr_array(
        grid_operator(grid, "second_derivative", block_dim=m)
        + _block_diagonal(Vt_blocks))
    H_similar = _block_diagonal(U_blocks) @ H_g @ _block_diagonal(Ui_blocks)
    return RegaugeResult(grid=grid, H_g=H_g, H=H, H_similar=H_similar)


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


def spectral_compare(res: RegaugeResult, sig: ThetaSignature,
                     n_low: int = 20) -> SpectralCompareReport:
    """Compare the lowest modes of H_g against the direct re-gauged build,
    both cut at a common pair-safe k >= n_low (linalg.lowest_common), from
    the whole spectra by dense eig; the pairing classes of the whole
    spectra use the tolerance PAIR_TOL."""
    e1 = eig(res.H_g)
    e2 = eig(res.H)
    low1, low2 = lowest_common(n_low, e1, e2)

    P_bold = scipy.sparse.kron(grid_operator(res.grid, "parity"), sig.theta,
                               format="csr")
    # block test vectors: scalar envelope times each coordinate direction
    Tb = np.kron(interior_test_vectors(res.grid), np.eye(sig.m))
    r_abs = weak_pseudo_hermiticity_residual(res.H_g, P_bold, Tb)
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
    p = sig.p

    def sym(M):
        return (M + M.T) / 2

    D_even = sym(rng.standard_normal((m, m)) * 0.3)
    D_even[:p, p:] = 0.0
    D_even[p:, :p] = 0.0
    B_odd = sym(rng.standard_normal((m, m)) * 0.3)
    B_odd[:p, :p] = 0.0
    B_odd[p:, p:] = 0.0
    Di_odd = sym(rng.standard_normal((m, m)) * 0.3)
    Di_odd[:p, p:] = 0.0
    Di_odd[p:, :p] = 0.0
    Bi_even = sym(rng.standard_normal((m, m)) * 0.3)
    Bi_even[:p, :p] = 0.0
    Bi_even[p:, p:] = 0.0

    def V(x):
        even = np.exp(-x**2)
        odd = x * np.exp(-x**2)
        return (x**2 * np.eye(m) + D_even * even + B_odd * odd
                + 1j * (Di_odd * odd + Bi_even * even))

    return MatrixPotential(m=m, V=V)
