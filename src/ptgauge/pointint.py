"""Zero-range Hamiltonian H_T at x = 0: boundary triple, rotation angle, spectra.

The extension is encoded by a 2x2 coupling matrix T acting on the
boundary data of f in W^2_2(R \\ {0}):

    Gamma_0 f = 1/2 ( f(+0) + f(-0), -f'(+0) - f'(-0) )
    Gamma_1 f = ( f'(+0) - f'(-0),  f(+0) - f(-0) )

with domain condition T Gamma_0 f = Gamma_1 f.  PT-symmetry of H_T is
equivalent to t11, t22 real and t12, t21 purely imaginary; the rotated
involution P_phi = P e^{i phi R} restores selfadjointness for t12 != t21,
with tan(phi) = 2 Im(t12 - t21) / (det T + 4) on the principal branch
(-pi/2, pi/2].

Boundary action of P_phi (the f' trace carries e^{-+ i phi} f'(-+0) with
a minus sign; the corresponding transform of the boundary pair is

    Gamma_0 P_phi f =  M1 Gamma_0 f + M2 Gamma_1 f
    Gamma_1 P_phi f = -4 M2 Gamma_0 f + M1 Gamma_1 f
    M1 = cos(phi) sigma_3,   M2 = (i/2) sin(phi) sigma_1.

Bound states use the decaying ansatz f = a e^{-kx} (x>0), b e^{kx} (x<0);
the matching determinant is the closed-form polynomial

    det M(k) = t11 + (2 - det(T)/2) k - t22 k^2,

whose roots with Re k > 0 give energies E = -k^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import pairing_check, worst_residual

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)

_STRUCT_TOL = 1e-13


@dataclass(frozen=True)
class CouplingMatrixT:
    t11: complex
    t12: complex
    t21: complex
    t22: complex

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.t11, self.t12], [self.t21, self.t22]],
                        dtype=complex)

    @property
    def is_pt_symmetric(self) -> bool:
        return (abs(self.t11.imag) <= _STRUCT_TOL
                and abs(self.t22.imag) <= _STRUCT_TOL
                and abs(self.t12.real) <= _STRUCT_TOL
                and abs(self.t21.real) <= _STRUCT_TOL)

    @property
    def det(self) -> complex:
        return self.t11 * self.t22 - self.t12 * self.t21


@dataclass(frozen=True)
class PiecewiseFunction:
    """Traces of a piecewise-smooth function at x = 0 (supplied analytically)."""

    f_plus: complex    # f(+0)
    f_minus: complex   # f(-0)
    df_plus: complex   # f'(+0)
    df_minus: complex  # f'(-0)


@dataclass(frozen=True)
class BoundaryPair:
    gamma0: np.ndarray
    gamma1: np.ndarray


def boundary_maps(f: PiecewiseFunction) -> BoundaryPair:
    g0 = 0.5 * np.array([f.f_plus + f.f_minus, -f.df_plus - f.df_minus],
                        dtype=complex)
    g1 = np.array([f.df_plus - f.df_minus, f.f_plus - f.f_minus], dtype=complex)
    return BoundaryPair(gamma0=g0, gamma1=g1)


def domain_check(T: CouplingMatrixT, f: PiecewiseFunction) -> float:
    """Residual of the domain condition T Gamma_0 f = Gamma_1 f."""
    bp = boundary_maps(f)
    return float(np.abs(T.matrix @ bp.gamma0 - bp.gamma1).max())


@dataclass(frozen=True)
class PhiSolution:
    phi: float
    degenerate: bool
    m1: np.ndarray
    m2: np.ndarray
    residual: float


def _reduce_principal(phi: float) -> float:
    """Fold to (-pi/2, pi/2]; phi and phi + pi define the same condition."""
    while phi > np.pi / 2:
        phi -= np.pi
    while phi <= -np.pi / 2:
        phi += np.pi
    return phi


def clifford_angle(T: CouplingMatrixT) -> PhiSolution:
    """Solve i sin(phi) [det T + 4] = 2 cos(phi) (t12 - t21) for PT-symmetric T."""
    if not T.is_pt_symmetric:
        raise ValueError("clifford_angle requires a PT-symmetric coupling matrix")
    d = (T.det + 4).real
    beta = (T.t12 - T.t21).imag
    degenerate = abs(beta) <= _STRUCT_TOL and abs(d) <= _STRUCT_TOL
    if degenerate:
        phi = 0.0
    else:
        phi = _reduce_principal(float(np.arctan2(2 * beta, d)))
    m1 = np.cos(phi) * SIGMA_3
    m2 = (1j / 2) * np.sin(phi) * SIGMA_1
    lhs = 1j * np.sin(phi) * (T.det + 4)
    rhs = 2 * np.cos(phi) * (T.t12 - T.t21)
    res = 0.0 if degenerate else float(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return PhiSolution(phi=phi, degenerate=degenerate, m1=m1, m2=m2, residual=res)


def apply_p_phi_traces(f: PiecewiseFunction, phi: float) -> PiecewiseFunction:
    """Traces of P_phi f from the traces of f.

    (P_phi f)(+-0) = e^{-+ i phi} f(-+0);
    (P_phi f)'(+-0) = -e^{-+ i phi} f'(-+0).
    """
    ep = np.exp(-1j * phi)
    em = np.exp(+1j * phi)
    return PiecewiseFunction(
        f_plus=ep * f.f_minus,
        f_minus=em * f.f_plus,
        df_plus=-ep * f.df_minus,
        df_minus=-em * f.df_plus,
    )


@dataclass(frozen=True)
class BoundaryTransformReport:
    trace_residual: float
    gamma_residual: float
    matrix_residual: float


def _matrix_relation_residual(T: CouplingMatrixT, m1: np.ndarray,
                              m2: np.ndarray) -> float:
    M = T.matrix
    lhs = M.conj().T @ m2 @ M
    rhs = m1 @ M - M.conj().T @ m1 - 4 * m2
    return float(np.abs(lhs - rhs).max())


def boundary_transform_check(T: CouplingMatrixT, sol: PhiSolution,
                             f_samples: Sequence[PiecewiseFunction]
                             ) -> BoundaryTransformReport:
    """Residuals of the boundary transform of P_phi and the coupling-matrix
    relation.

    (i) trace identities (checked by construction of apply_p_phi_traces via
    an independent rotation of the pieces), (ii) both Gamma transform lines,
    (iii) T^H M2 T = M1 T - T^H M1 - 4 M2 at the solved angle.
    """
    if not f_samples:
        raise ValueError("f_samples must be nonempty")
    phi = sol.phi
    trace_res = []
    gamma_res = []
    for f in f_samples:
        g = apply_p_phi_traces(f, phi)
        # independent trace check: P_phi = P e^{i phi R} acts on the half-line
        # values as multiplication by e^{i phi sign(x)} followed by reflection
        tr = np.array([
            g.f_plus - np.exp(-1j * phi) * f.f_minus,
            g.f_minus - np.exp(1j * phi) * f.f_plus,
            g.df_plus + np.exp(-1j * phi) * f.df_minus,
            g.df_minus + np.exp(1j * phi) * f.df_plus,
        ])
        trace_res.append(np.abs(tr).max())
        bf = boundary_maps(f)
        bg = boundary_maps(g)
        r0 = bg.gamma0 - (sol.m1 @ bf.gamma0 + sol.m2 @ bf.gamma1)
        r1 = bg.gamma1 - (-4 * sol.m2 @ bf.gamma0 + sol.m1 @ bf.gamma1)
        gamma_res.append(np.abs(np.concatenate([r0, r1])).max())
    trace_res = worst_residual(trace_res)
    gamma_res = worst_residual(gamma_res)
    return BoundaryTransformReport(
        trace_residual=trace_res, gamma_residual=gamma_res,
        matrix_residual=_matrix_relation_residual(T, sol.m1, sol.m2))


def p_phi_selfadjointness_check(T: CouplingMatrixT, sol: PhiSolution) -> float:
    """Residual of P_phi mapping the domain data of H_T into that of H_T^H.

    For a basis Gamma_0 = e_i with Gamma_1 = T e_i, the transformed data
    (Gamma_0', Gamma_1') must satisfy T^H Gamma_0' = Gamma_1'.
    """
    M = T.matrix
    residuals = []
    for i in range(2):
        g0 = np.zeros(2, dtype=complex)
        g0[i] = 1.0
        g1 = M @ g0
        g0p = sol.m1 @ g0 + sol.m2 @ g1
        g1p = -4 * sol.m2 @ g0 + sol.m1 @ g1
        residuals.append(np.abs(M.conj().T @ g0p - g1p).max())
    return worst_residual(residuals)


@dataclass(frozen=True)
class BoundState:
    kappa: complex
    energy: complex
    domain_residual: float


def _matching_matrix(T: CouplingMatrixT, kappa: complex) -> np.ndarray:
    """M(k) in the (a, b) amplitude basis: T G0(k) - G1(k)."""
    G0 = np.array([[0.5, 0.5], [kappa / 2, -kappa / 2]], dtype=complex)
    G1 = np.array([[-kappa, -kappa], [1.0, -1.0]], dtype=complex)
    return T.matrix @ G0 - G1


def bound_states(T: CouplingMatrixT) -> list[BoundState]:
    """Closed-form roots of det M(k) = t11 + (2 - det T / 2) k - t22 k^2.

    A root with |Im k| <= 1e-10 is taken as real.
    """
    c0 = T.t11
    c1 = 2 - T.det / 2
    c2 = -T.t22
    if abs(c2) > 1e-14:
        roots = np.roots([c2, c1, c0])
    elif abs(c1) > 1e-14:
        roots = np.array([-c0 / c1])
    else:
        roots = np.array([])
    out = []
    for k in roots:
        if k.real <= 1e-12:
            continue
        if abs(k.imag) <= 1e-10:
            k = k.real + 0j
        M = _matching_matrix(T, k)
        # amplitudes (a, b) of the decaying ansatz: the null vector of the
        # 2x2 matching matrix
        _, _, vh = np.linalg.svd(M)
        a, b = vh[-1].conj()
        f = PiecewiseFunction(f_plus=a, f_minus=b, df_plus=-k * a, df_minus=k * b)
        out.append(BoundState(kappa=k, energy=-k**2,
                              domain_residual=domain_check(T, f)))
    out.sort(key=lambda s: (s.energy.real, s.energy.imag))
    return out


@dataclass(frozen=True)
class SweepRow:
    t11: float
    t22: float
    im_t12: float
    im_t21: float
    phi: float
    degenerate: bool
    n_bound: int
    energies: np.ndarray      # padded to length 2 with NaN
    classification: str


def pt_phase_sweep(t11_values, t22_values, im_t12_values,
                   im_t21_values) -> list[SweepRow]:
    """Grid sweep over PT-symmetric couplings; rows in deterministic order.

    Each row's bound-state energies are classified by pairing_check at
    tolerance 1e-8.
    """
    rows = []
    for t11 in t11_values:
        for t22 in t22_values:
            for b12 in im_t12_values:
                for b21 in im_t21_values:
                    T = CouplingMatrixT(t11=complex(t11), t12=1j * b12,
                                        t21=1j * b21, t22=complex(t22))
                    sol = clifford_angle(T)
                    states = bound_states(T)
                    energies = np.full(2, complex(np.nan, np.nan))
                    for i, s in enumerate(states[:2]):
                        energies[i] = s.energy
                    evals = [s.energy for s in states]
                    cls = pairing_check(evals, 1e-8) if evals else "all_real"
                    rows.append(SweepRow(
                        t11=float(t11), t22=float(t22), im_t12=float(b12),
                        im_t21=float(b21), phi=sol.phi,
                        degenerate=sol.degenerate, n_bound=len(states),
                        energies=energies, classification=cls))
    return rows
