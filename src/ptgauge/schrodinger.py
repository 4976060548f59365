"""Matrix Schrödinger operators with constant non-Abelian gauge potential.

H_g = (p - A)^2 + V(x) with A a constant m x m matrix and V(x) a matrix
potential sampled on the staggered grid.  Since A is constant it commutes
with p, so the exact expansion is p^2 - 2 A p + A^2 + V.  The re-gauged
operator is built independently as H = p^2 + e^{-iAx} V(x) e^{iAx}; the
two discretizations agree up to O(h^2), which is what spectral_compare
measures (the literal similarity U_grid H_g U_grid^{-1} is spectrally
exact by construction and is returned for reference).

Tensor convention: grid index slowest, kron(grid_op, matrix_part).
The extended parity is P_bold = kron(parity_grid, Theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import block_diag

from .abelian import interior_test_vectors, weak_pseudo_hermiticity_residual
from .cartan import ThetaSignature
from .linalg import Grid1D, GridOperator, eig, expm, grid_operator, \
    match_spectra, operator_norm_estimate, pairing_check, worst_residual


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


@dataclass(frozen=True)
class SymmetryAuditReport:
    residuals: dict
    passed: bool


def symmetry_audit(gauge: ConstantGauge, pot: MatrixPotential,
                   sig: ThetaSignature, grid: Grid1D,
                   tol: float = 1e-12) -> SymmetryAuditReport:
    """Residuals of the PT / parity-selfadjointness matrix identities.

    A-side: Theta A* Theta = A, Theta A^H Theta = -A, A = -A^T.
    V-side (max over nodes): Theta V*(-x) Theta = V(x),
    Theta V^H(-x) Theta = V(x), V = V^T.
    """
    A = gauge.A
    th = sig.theta
    x = grid.nodes
    Vs = pot.sample(x)
    Vrev = Vs[::-1]
    residuals = {
        "A_pt": float(np.abs(th @ A.conj() @ th - A).max()),
        "A_selfadj": float(np.abs(th @ A.conj().T @ th + A).max()),
        "A_antisym": float(np.abs(A + A.T).max()),
        "V_pt": float(np.abs(th @ Vrev.conj() @ th - Vs).max()),
        "V_selfadj": float(np.abs(th @ np.conj(np.swapaxes(Vrev, 1, 2)) @ th
                                  - Vs).max()),
        "V_sym": float(np.abs(Vs - np.swapaxes(Vs, 1, 2)).max()),
    }
    return SymmetryAuditReport(residuals=residuals,
                               passed=worst_residual(residuals.values()) <= tol)


def build_gauged(gauge: ConstantGauge, pot: MatrixPotential,
                 grid: Grid1D) -> GridOperator:
    """H_g = p^2 - 2 A p + A^2 + V, the expansion of (p - A)^2 + V."""
    m = gauge.m
    if pot.m != m:
        raise ValueError("gauge and potential dimensions differ")
    A = gauge.A
    # dense assembly: the spectral checks diagonalize H_g in full
    p = grid_operator(grid, "momentum").matrix.toarray()
    L = grid_operator(grid, "second_derivative").matrix.toarray()
    H_g = (np.kron(L, np.eye(m)) - 2 * np.kron(p, A)
           + np.kron(np.eye(grid.size), A @ A)
           + block_diag(*pot.sample(grid.nodes)))
    return GridOperator(grid=grid, block_dim=m, matrix=H_g)


@dataclass(frozen=True)
class RegaugeResult:
    H_g: GridOperator
    H: GridOperator          # direct build p^2 + e^{-iAx} V e^{iAx}
    H_similar: GridOperator  # U_grid H_g U_grid^{-1}


def build_and_regauge(gauge: ConstantGauge, pot: MatrixPotential,
                      grid: Grid1D) -> RegaugeResult:
    H_g = build_gauged(gauge, pot, grid)
    m = gauge.m
    x = grid.nodes
    A = gauge.A
    L = grid_operator(grid, "second_derivative").matrix.toarray()
    Vs = pot.sample(x)

    U_blocks = np.empty((len(x), m, m), dtype=complex)
    Ui_blocks = np.empty_like(U_blocks)
    Vt_blocks = np.empty_like(U_blocks)
    for j, xj in enumerate(x):
        U_blocks[j] = expm(-1j * A * xj)
        Ui_blocks[j] = expm(1j * A * xj)
        Vt_blocks[j] = U_blocks[j] @ Vs[j] @ Ui_blocks[j]
    H_direct = np.kron(L, np.eye(m)) + block_diag(*Vt_blocks)
    H_sim = block_diag(*U_blocks) @ H_g.matrix @ block_diag(*Ui_blocks)

    wrap = lambda M: GridOperator(grid=grid, block_dim=m, matrix=M)
    return RegaugeResult(H_g=H_g, H=wrap(H_direct), H_similar=wrap(H_sim))


@dataclass(frozen=True)
class SpectralCompareReport:
    max_match_dist: float        # max_k |lam_k - mu_k| / (1 + |lam_k|), lowest modes
    pairing_Hg: str
    pairing_H: str
    parity_residual: float       # weak-form P_bold-pseudo-Hermiticity of H_g
    eigenvalues_Hg: np.ndarray
    eigenvalues_H: np.ndarray
    match_dists: np.ndarray


def spectral_compare(res: RegaugeResult, sig: ThetaSignature,
                     n_low: int = 20, pair_tol: float = 1e-6) -> SpectralCompareReport:
    """Compare the lowest modes of H_g against the direct re-gauged build."""
    e1 = eig(res.H_g.matrix).eigenvalues
    e2 = eig(res.H.matrix).eigenvalues
    k = min(n_low, len(e1))
    low1 = e1[np.argsort(e1.real)[:k]]
    low2 = e2[np.argsort(e2.real)[:k]]
    dists = match_spectra(low1, low2) / (1 + np.abs(np.sort_complex(low1)))

    grid = res.H_g.grid
    m = res.H_g.block_dim
    P_bold = np.kron(np.eye(grid.size)[::-1], sig.theta).astype(complex)
    T = interior_test_vectors(grid, block_dim=1)
    # block test vectors: scalar envelope times each coordinate direction
    Tb = np.zeros((grid.size * m, T.shape[1] * m), dtype=complex)
    for c in range(m):
        col = np.zeros(m)
        col[c] = 1.0
        for i in range(T.shape[1]):
            Tb[:, c * T.shape[1] + i] = np.kron(T[:, i], col)
    r_abs = weak_pseudo_hermiticity_residual(res.H_g.matrix, P_bold, Tb)
    r = r_abs / operator_norm_estimate(res.H_g.matrix)

    return SpectralCompareReport(
        max_match_dist=float(dists.max()),
        pairing_Hg=pairing_check(e1, pair_tol).classification,
        pairing_H=pairing_check(e2, pair_tol).classification,
        parity_residual=r,
        eigenvalues_Hg=e1, eigenvalues_H=e2, match_dists=dists,
    )


def sample_audited_potential(sig: ThetaSignature, rng: np.random.Generator,
                             well: bool = True) -> MatrixPotential:
    """Random V(x) satisfying the PT and selfadjointness audit by construction.

    Real part: Theta-diagonal blocks even in x, off blocks odd.
    Imaginary part: Theta-diagonal blocks odd, off blocks even.
    All blocks symmetric, so V = V^T.  An optional x^2 well keeps the
    spectrum discrete on the box.
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
        base = x**2 * np.eye(m) if well else np.zeros((m, m))
        even = np.exp(-x**2)
        odd = x * np.exp(-x**2)
        return (base + D_even * even + B_odd * odd
                + 1j * (Di_odd * odd + Bi_even * even))

    return MatrixPotential(m=m, V=V)
