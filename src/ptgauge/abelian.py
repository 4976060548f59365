"""Scalar gauged Hamiltonian, gauge factorization, and metric polar split.

Pipeline for a PT-symmetric Abelian gauge potential A(x) on the staggered
grid:

  A = A_+ + i A_-          even-real / odd-real split (valid iff A(-x) = A*(x))
  Q(x) = int_0^x A_+       trapezoid quadrature, half cell at the origin
  S(x) = int_0^x A_-
  U_u = diag(e^{-iQ}),  U_h = diag(e^{S}),  U = U_u U_h
  eta = U^H P U = J |eta|,   J = U_u^{-1} P U_u,   |eta| = U_h^2

The quadrature starts with a trapezoid step over the half cell [0, h/2]
using the integrand value at x = 0, then runs node to node.  Because the
grid is symmetric and A_+ / A_- have definite parity, Q comes out exactly
odd and S exactly even, which makes the discrete factorization identities
(P U_u = U_u^H P etc.) hold to rounding; gauge_factorization returns their
residuals, and the records that bound them decide pass or fail.

U_u, U_h, U and |eta| are diagonal and are stored as their node values;
eta and J are the parity times a diagonal and are stored as sparse
anti-diagonal operators, and H_g as a sparse tridiagonal one.

Operator identities such as eta H_g = H_g^H eta are checked in weak form
on nine smooth real test vectors T, memoized per grid, that vanish on
N_BUFFER = 5 nodes at each edge of the box; the boundary rows of the box
truncation otherwise dominate the residual.  A grid of 2 N_BUFFER = 10
nodes or fewer would leave every test vector zero, and
require_weak_form_grid rejects it.  One pass forms H T once for both
metrics, eta and P, and divides the eta-residual by operator_norm_estimate,
an upper bound on ||H_g||_2, tight for this diagonally dominant band.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse

from .linalg import Grid1D, antidiagonal, block_tridiagonal, grid_operator, \
    indefinite_inner, operator_norm_estimate, sample_on_nodes, stencil, \
    worst_residual

# bound on the PT defect of A, on the nodes and at the origin
IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class ScalarPotentials:
    """A(x), V(x): each called once per build, elementwise, on the nodes."""

    A: Callable[[np.ndarray], np.ndarray]
    V: Callable[[np.ndarray], np.ndarray]


def split_even_odd(A: Callable[[np.ndarray], np.ndarray], grid: Grid1D):
    """Split a PT-symmetric A, called once on the node array, into real-even
    A_+ and real-odd A_- node values; raises ValueError if
    |A(-x) - conj(A(x))| exceeds IDENTITY_TOL."""
    x = grid.nodes
    vals = sample_on_nodes(A, x)
    defect = np.abs(vals[::-1] - np.conj(vals))
    if not worst_residual(defect) <= IDENTITY_TOL:   # NaN fails as well
        worst = int(np.argmax(defect))
        raise ValueError(
            f"A must be finite and PT-symmetric on the grid: worst node "
            f"x={x[worst]:.6g} with |A(-x) - conj(A(x))| = {defect[worst]:.3e}"
        )
    return vals.real.copy(), vals.imag.copy()


def _cumulative_from_origin(node_vals: np.ndarray, value_at_0: float,
                            grid: Grid1D) -> np.ndarray:
    """Trapezoid antiderivative int_0^{x_j} f, respecting the staggered grid:
    on each side, the running sum of the trapezoid steps outward from 0,
    the first of which covers the half cell between 0 and +-h/2."""
    h = grid.spacing
    N = grid.half_count
    out = np.empty(2 * N)
    for outward, sign in ((np.s_[N:], 1.0), (np.s_[N - 1::-1], -1.0)):
        v = node_vals[outward]
        steps = np.empty(N)
        steps[0] = 0.5 * (value_at_0 + v[0]) * (h / 2)
        steps[1:] = 0.5 * (v[:-1] + v[1:]) * h
        out[outward] = np.cumsum(sign * steps)
    return out


@dataclass(frozen=True)
class GaugeFactorization:
    """Node values of the diagonal factors, and eta, J as anti-diagonal CSR
    arrays (row j holds the entry in column n-1-j)."""

    grid: Grid1D
    u_u: np.ndarray                  # U_u = diag(u_u), u_u = e^{-iQ}
    u_h: np.ndarray                  # U_h = diag(u_h), u_h = e^{S}
    abs_eta: np.ndarray              # |eta| = U_h^2
    eta: scipy.sparse.csr_array
    J: scipy.sparse.csr_array
    Q: np.ndarray
    R_Q: Optional[np.ndarray]        # sign(Q); None when Q vanishes at some node
    residuals: dict


def gauge_factorization(A: Callable[[np.ndarray], np.ndarray],
                        grid: Grid1D) -> GaugeFactorization:
    """Factor the gauge of A on grid, calling A once on the node array and
    once at the origin; raises ValueError if A is not PT-symmetric on the
    nodes or at the origin, or if |eta| = e^{2S} overflows; it does not
    judge the identity residuals it returns."""
    a_plus, a_minus = split_even_odd(A, grid)
    a0 = complex(A(0.0))
    if not abs(a0 - a0.conjugate()) <= IDENTITY_TOL:   # NaN fails as well
        raise ValueError(f"A(0) must be finite and real, got {a0}")
    Q = _cumulative_from_origin(a_plus, a0.real, grid)
    S = _cumulative_from_origin(a_minus, a0.imag, grid)

    u_u = np.exp(-1j * Q)
    u_h = np.exp(S)
    abs_eta = u_h**2
    if not np.isfinite(abs_eta).all():
        raise ValueError(f"|eta| = e^(2S) overflows: max S = {S.max():.6g}")
    u = u_u * u_h
    # P D and D' P for diagonals D, D' have one entry per row, at (j, n-1-j):
    # (P D)_j = d[n-1-j] and (D' P)_j = d'[j], so every identity below is
    # an identity between reversed and unreversed node vectors
    eta_d = np.conj(u) * u[::-1]
    J_d = np.exp(1j * Q) * u_u[::-1]

    def rel(diff, scale):
        # entries of U_h and eta grow like e^S, so residuals are measured
        # relative to the local magnitude (floored at 1)
        return float((np.abs(diff) / np.maximum(1.0, np.abs(scale))).max())

    residuals = {
        "P_Uu": float(np.abs(u_u[::-1] - np.conj(u_u)).max()),
        "P_Uh": rel(u_h[::-1] - u_h, u_h[::-1]),
        "P_U": rel(u[::-1] - np.conj(u), u[::-1]),
        "polar": rel(eta_d - J_d * (u_h**2)[::-1], eta_d),
        "J_involution": float(np.abs(
            np.exp(1j * (Q + Q[::-1])) * u_u * u_u[::-1] - 1.0).max()),
        "J_hermitian": float(np.abs(J_d - np.conj(J_d[::-1])).max()),
    }

    # the sign split R_Q |Q| = Q needs Q nonzero at every node
    q_abs = np.abs(Q)
    if np.any(q_abs == 0.0):
        R_Q = None
    else:
        R_Q = np.sign(Q)
        residuals["sign_split"] = float(np.abs(R_Q * q_abs - Q).max())
        residuals["P_RQ_anticommute"] = float(np.abs(R_Q[::-1] + R_Q).max())

    return GaugeFactorization(
        grid=grid, u_u=u_u, u_h=u_h, abs_eta=abs_eta,
        eta=antidiagonal(eta_d), J=antidiagonal(J_d),
        Q=Q, R_Q=R_Q, residuals=residuals,
    )


def build_scalar_hamiltonian(pots: ScalarPotentials,
                             grid: Grid1D) -> scipy.sparse.csr_array:
    """H_g = p^2 - p A - A p + A^2 + V with p^2 the 3-point stencil, as a
    tridiagonal CSR array assembled from its three diagonals."""
    A, V = (sample_on_nodes(f, grid.nodes)[:, None, None]   # 1 x 1 blocks
            for f in (pots.A, pots.V))
    p_lo, _, p_up = stencil(grid, "momentum")   # p has no diagonal
    L_lo, L_d, L_up = stencil(grid, "second_derivative")
    return block_tridiagonal((L_lo - p_lo * A[:-1]) - A[1:] * p_lo,
                             L_d + (A**2 + V),
                             (L_up - p_up * A[1:]) - A[:-1] * p_up)


N_BUFFER = 5   # nodes at each box edge on which the test vectors vanish


def require_weak_form_grid(grid: Grid1D) -> None:
    """Raise ValueError unless a node lies between the two buffers."""
    if grid.size <= 2 * N_BUFFER:
        raise ValueError(f"the weak form needs more than {2 * N_BUFFER} grid "
                         f"nodes (its test vectors vanish on {N_BUFFER} at "
                         f"each edge), got {grid.size}")


@functools.lru_cache(maxsize=16)
def interior_test_vectors(grid: Grid1D) -> np.ndarray:
    """Nine smooth real unit test vectors vanishing within N_BUFFER nodes of
    the box edge, the columns of one read-only float64 array per grid
    (ValueError on a grid require_weak_form_grid rejects): Gaussian-envelope
    polynomials and sines, narrow enough that the cutoff jumps by ~1e-8."""
    require_weak_form_grid(grid)
    x = grid.nodes
    env = np.exp(-x**2 / (2 * (x[-1] / 6) ** 2))
    T = np.column_stack([env * x**k for k in range(5)]
                        + [env * np.sin(k * x) for k in range(1, 5)])
    T[:N_BUFFER] = T[-N_BUFFER:] = 0.0
    T /= np.linalg.norm(T, axis=0)
    T.flags.writeable = False
    return T


def weak_pseudo_hermiticity_residual(H, metrics, T: np.ndarray) -> list:
    """max_{i,j} |phi_i^T (eta H - H^H eta) phi_j| over the real test basis
    T, for each eta in metrics, from one product H T, whose adjoint stands
    for T^T H^H; H and each eta may be dense or scipy.sparse."""
    T = T.astype(complex)   # sparse products of a complex T run faster
    HT = H @ T
    return [float(abs(T.T @ (eta @ HT) - HT.conj().T @ (eta @ T)).max())
            for eta in metrics]


@dataclass(frozen=True)
class PseudoHermiticityReport:
    r1: float            # weak-form eta-residual / the bound on ||H_g||_2
    r1_abs: float
    r2_abs: float        # weak-form residual with eta -> plain parity
    weighted_form_residual: float
    norm_H: float
    passed: bool


def verify_pseudo_hermiticity(H, fact: GaugeFactorization, tol: float,
                              seed: int = 7) -> PseudoHermiticityReport:
    """Weak-form residuals of H on the grid of fact, from one pass."""
    grid = fact.grid
    T = interior_test_vectors(grid)
    norm_H = operator_norm_estimate(H)
    r1_abs, r2_abs = weak_pseudo_hermiticity_residual(
        H, (fact.eta, grid_operator(grid, "parity")), T)
    r1 = r1_abs / norm_H

    # weighted-form identity (H_g phi, J psi)_{|eta|} = (phi, J H_g psi)_{|eta|}
    # for five pairs phi = T c, psi = T d, drawn c, d, c, d, ...
    coef = np.random.default_rng(seed).standard_normal((5, 2, T.shape[1]))
    X = (T @ np.vstack((coef[:, 0], coef[:, 1])).T).astype(complex)
    HX = H @ X   # [H phi | H psi]
    J, w, h = fact.J, fact.abs_eta, grid.spacing
    lhs = indefinite_inner(HX[:, :5], X[:, 5:], J, w, h)
    rhs = indefinite_inner(X[:, :5], HX[:, 5:], J, w, h)
    wf_res = abs(lhs - rhs) / np.maximum(np.maximum(abs(lhs), abs(rhs)), 1.0)

    return PseudoHermiticityReport(
        r1=r1, r1_abs=r1_abs, r2_abs=r2_abs,
        weighted_form_residual=worst_residual(wf_res), norm_H=norm_H,
        passed=r1 <= tol,
    )
