"""Zero-range Hamiltonian H_T at x = 0: boundary triple, rotation angle, spectra.

The extension is encoded by a 2x2 coupling matrix T acting on the
boundary data of f in W^2_2(R \\ {0}):

    Gamma_0 f = 1/2 ( f(+0) + f(-0), -f'(+0) - f'(-0) )
    Gamma_1 f = ( f'(+0) - f'(-0),  f(+0) - f(-0) )

with domain condition T Gamma_0 f = Gamma_1 f; boundary_maps returns the
pair (Gamma_0 f, Gamma_1 f) of length-2 arrays.  PT-symmetry of H_T is
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

The phase sweep works on arrays, a block of couplings at a time: the
couplings come from one meshgrid, det T, phi, the degenerate flag and the
pairing class are computed entry-wise, and each block is written into the
columns of a PhaseSweep, whose rows are built only as they are iterated.
bound_states and the sweep take their roots, energies and order from one
kernel, _decaying_states, which finds the quadratic roots by stacked
eigvals calls on companion matrices, in float64 for real coefficients;
only bound_states computes amplitudes and domain residuals (relative to the
size of the terms of T Gamma_0 f and of Gamma_1 f).  At t11 = 0 the
companion matrix [[-c1/c2, -0/c2], [1, 0]] is triangular, and eigvals gives
its roots -c1/c2 and 0 exactly; the zero root does not decay.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .linalg import worst_residual

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)

_STRUCT_TOL = 1e-13   # |beta|, |d| at or below it flag a degenerate angle


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
        """Exactly: t11, t22 real and t12, t21 purely imaginary."""
        return (self.t11.imag == 0 and self.t22.imag == 0
                and self.t12.real == 0 and self.t21.real == 0)

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


def boundary_maps(f: PiecewiseFunction) -> tuple:
    """(Gamma_0 f, Gamma_1 f), each a length-2 complex array."""
    g0 = 0.5 * np.array([f.f_plus + f.f_minus, -f.df_plus - f.df_minus],
                        dtype=complex)
    g1 = np.array([f.df_plus - f.df_minus, f.f_plus - f.f_minus], dtype=complex)
    return g0, g1


def domain_check(T: CouplingMatrixT, f: PiecewiseFunction) -> float:
    """Residual of the domain condition T Gamma_0 f = Gamma_1 f over
    s = max(1, || |T| s0 ||_inf, ||Gamma_1 f||_inf), NaN if s overflows.
    s0 = (|f(+0)| + |f(-0)|, |f'(+0)| + |f'(-0)|) / 2 bounds |Gamma_0 f|, and
    the traces carry a few eps of their size, so entry i of T Gamma_0 f is off
    by a few eps (|T| s0)_i, the size of its terms, also where they cancel;
    the other side, Gamma_1 f, is measured by its own size."""
    g0, g1 = boundary_maps(f)
    s0 = np.abs([[f.f_plus, f.df_plus], [f.f_minus, f.df_minus]]).sum(0) / 2
    with np.errstate(over="ignore", invalid="ignore"):   # NaN past overflow
        scale = np.max(np.r_[1.0, np.abs(T.matrix) @ s0, np.abs(g1)])
        res = np.abs(T.matrix @ g0 - g1).max() / scale
    return float(res if np.isfinite(scale) else np.nan)


@dataclass(frozen=True)
class PhiSolution:
    phi: float
    degenerate: bool
    m1: np.ndarray
    m2: np.ndarray
    residual: float


def _principal_angle(d, beta):
    """phi with tan(phi) = 2 beta / d on (-pi/2, pi/2], and the degenerate
    flag (|beta|, |d| <= 1e-13, where phi is 0); entry-wise on arrays.

    arctan of the quotient keeps a small phi to rounding (a fold of arctan2
    by pi keeps only ulp(pi)); its -pi/2 (d = 0, or an overflow) is the
    branch end pi/2, and beta = 0 at d < 0 gives +0.0, as the fold did.
    """
    degenerate = (np.abs(beta) <= _STRUCT_TOL) & (np.abs(d) <= _STRUCT_TOL)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        phi = np.arctan(np.divide(2 * beta, d))
    phi = np.where(phi <= -np.pi / 2, np.pi / 2,
                   np.where(d < 0, phi + 0.0, phi))
    return np.where(degenerate, 0.0, phi), degenerate


def p_phi_blocks(phi: float) -> tuple:
    """(M1, M2) = (cos(phi) sigma_3, (i/2) sin(phi) sigma_1), the blocks of
    the boundary transform of P_phi."""
    return np.cos(phi) * SIGMA_3, (1j / 2) * np.sin(phi) * SIGMA_1


def clifford_angle(T: CouplingMatrixT) -> PhiSolution:
    """Solve i sin(phi) [det T + 4] = 2 cos(phi) (t12 - t21) for PT-symmetric T."""
    if not T.is_pt_symmetric:
        raise ValueError("clifford_angle requires a PT-symmetric coupling matrix")
    phi, degenerate = _principal_angle((T.det + 4).real, (T.t12 - T.t21).imag)
    phi, degenerate = float(phi), bool(degenerate)
    m1, m2 = p_phi_blocks(phi)
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
    gamma_residual: float
    matrix_residual: float


def matrix_relation_residual(T: CouplingMatrixT, m1: np.ndarray,
                             m2: np.ndarray) -> float:
    """Residual of T^H M2 T = M1 T - T^H M1 - 4 M2, relative to
    max(1, |T|_max)^2.

    Its matrix has column i equal to T^H Gamma_0' - Gamma_1', where
    (Gamma_0', Gamma_1') is the image under P_phi of the domain data
    Gamma_0 = e_i, Gamma_1 = T e_i of H_T: it vanishes exactly when P_phi
    maps the domain of H_T into that of H_T^H.

    Scale: M1 = cos(phi) sigma_3 and M2 = (i/2) sin(phi) sigma_1 have
    entries of modulus <= 1, so every entry of both sides is a sum of at
    most four products of at most two entries of T with such entries.  Its
    rounding is a few eps max(1, |T|_max)^2, and the residual is divided by
    that scale, as two divisions by max(1, |T|_max): the square overflows
    past |T|_max = 1.3e154, where a NaN angle must still give NaN.
    """
    M = T.matrix
    lhs = M.conj().T @ m2 @ M
    rhs = m1 @ M - M.conj().T @ m1 - 4 * m2
    s = max(1.0, float(np.abs(M).max()))
    return float(np.abs(lhs - rhs).max() / s / s)


def boundary_transform_check(T: CouplingMatrixT, sol: PhiSolution,
                             f_samples: Sequence[PiecewiseFunction]
                             ) -> BoundaryTransformReport:
    """Residuals of the boundary transform of P_phi and the coupling-matrix
    relation.

    (i) both Gamma transform lines on the traces apply_p_phi_traces gives,
    (ii) T^H M2 T = M1 T - T^H M1 - 4 M2 at the solved angle.
    """
    if not f_samples:
        raise ValueError("f_samples must be nonempty")
    gamma_res = []
    for f in f_samples:
        f0, f1 = boundary_maps(f)
        g0, g1 = boundary_maps(apply_p_phi_traces(f, sol.phi))
        r0 = g0 - (sol.m1 @ f0 + sol.m2 @ f1)
        r1 = g1 - (-4 * sol.m2 @ f0 + sol.m1 @ f1)
        gamma_res.append(np.abs(np.concatenate([r0, r1])).max())
    return BoundaryTransformReport(
        gamma_residual=worst_residual(gamma_res),
        matrix_residual=matrix_relation_residual(T, sol.m1, sol.m2))


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


_ZERO_COEF = 1e-14   # a polynomial coefficient of modulus <= this counts as 0
# with |c0|, |c1| <= MAX_COEF and |c2| > _ZERO_COEF, Cauchy's bound
# |k| <= 1 + max(|c0|, |c1|) / |c2| keeps every root k and -k^2 finite
MAX_COEF = 1e140


def coefficients(t11, det, t22) -> tuple:
    """(c0, c1, c2) of det M(k) = c0 + c1 k + c2 k^2; scalars or arrays."""
    return t11, 2 - det / 2, -t22


def _decaying_states(c0, c1, c2) -> tuple:
    """Per polynomial c0 + c1 k + c2 k^2 (coefficient arrays of one shape,
    or scalars): the decaying roots kappa and energies E = -kappa^2, ordered
    stably by (Re E, Im E) and padded to length 2 with NaN, and their count.
    A root decays if Re k > 1e-12 (a NaN root is kept, so that it shows);
    one with |Im k| <= 1e-10 is taken as real.  Real coefficients (every
    PT coupling) are solved in float64, so nonreal roots pair exactly."""
    c0, c1, c2 = (np.asarray(c, dtype=complex) for c in (c0, c1, c2))
    real = (c0.imag == 0) & (c1.imag == 0) & (c2.imag == 0)
    # two roots a polynomial; a missing one is k = 0, which does not decay
    roots = np.zeros(c0.shape + (2,), dtype=complex)
    for rows, cast in ((real, np.real), (~real, np.asarray)):
        d0, d1, d2 = (cast(c[rows]) for c in (c0, c1, c2))
        quadratic = np.abs(d2) > _ZERO_COEF
        linear = ~quadratic & (np.abs(d1) > _ZERO_COEF)
        r = np.zeros(d0.shape + (2,), dtype=complex)
        # quadratic: the eigenvalues of the companion matrices
        A = np.zeros((int(quadratic.sum()), 2, 2), dtype=d0.dtype)
        A[:, 0, 0] = -d1[quadratic] / d2[quadratic]
        A[:, 0, 1] = -d0[quadratic] / d2[quadratic]
        A[:, 1, 0] = 1
        r[quadratic] = np.linalg.eigvals(A)
        # linear: Python's complex division, which rounds a quotient of reals
        # as a real division does; numpy's multiplies by a reciprocal
        r[linear, 0] = [-complex(a) / complex(b)
                        for a, b in zip(d0[linear], d1[linear])]
        roots[rows] = r

    keep = ~(roots.real <= 1e-12)
    kappa = np.where(np.abs(roots.imag) <= 1e-10, roots.real + 0j, roots)
    # E = -k^2 with k^2 formed in separate real operations, as a complex
    # scalar squares; the vectorised complex product may fuse a multiply-add
    re, im = kappa.real, kappa.imag
    E = np.empty_like(kappa)
    E.real, E.imag = -(re * re - im * im), -2 * (re * im)
    e0, e1 = E[..., 0], E[..., 1]
    swap = keep[..., 1] & (~keep[..., 0] | (e1.real < e0.real)
                           | ((e1.real == e0.real) & (e1.imag < e0.imag)))
    kappa[swap] = kappa[swap, ::-1]
    E[swap] = E[swap, ::-1]
    count = keep.sum(axis=-1)
    pad = np.arange(2) >= count[..., None]
    kappa[pad] = E[pad] = complex(np.nan, np.nan)
    return kappa, E, count


def bound_states(T: CouplingMatrixT) -> list[BoundState]:
    """Decaying states from the roots of det M(k) = t11 + (2 - det T / 2) k
    - t22 k^2, ordered by (Re E, Im E); see _decaying_states."""
    kappa, energy, count = _decaying_states(*coefficients(T.t11, T.det, T.t22))
    out = []
    for k, e in zip(kappa[:count], energy[:count]):
        M = _matching_matrix(T, k)
        # amplitudes (a, b) of the decaying ansatz: the null vector of the
        # 2x2 matching matrix
        _, _, vh = np.linalg.svd(M)
        a, b = vh[-1].conj()
        f = PiecewiseFunction(f_plus=a, f_minus=b, df_plus=-k * a, df_minus=k * b)
        out.append(BoundState(kappa=k, energy=e,
                              domain_residual=domain_check(T, f)))
    return out


class SweepRow(NamedTuple):
    t11: float
    t22: float
    im_t12: float
    im_t21: float
    phi: float
    degenerate: bool
    n_bound: int
    energies: np.ndarray      # padded to length 2 with NaN
    classification: str


CLASSIFICATIONS = ("all_real", "conjugate_paired", "unpaired")
_BLOCK = 1024   # couplings the sweep solves at once


@dataclass(frozen=True, eq=False)
class PhaseSweep:
    """The rows of a sweep as read-only columns, classification as indices
    into CLASSIFICATIONS; the rows are built as they are iterated."""

    t11: np.ndarray
    t22: np.ndarray
    im_t12: np.ndarray
    im_t21: np.ndarray
    phi: np.ndarray
    degenerate: np.ndarray
    n_bound: np.ndarray
    energies: np.ndarray        # (n, 2)
    classification: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    def __len__(self):
        return len(self.t11)

    def _rows(self, s: slice):
        scalars = [getattr(self, f)[s].tolist() for f in SweepRow._fields[:7]]
        names = map(CLASSIFICATIONS.__getitem__,
                    self.classification[s].tolist())
        return map(SweepRow, *scalars, self.energies[s], names)

    def __iter__(self):
        for lo in range(0, len(self), _BLOCK):
            yield from self._rows(slice(lo, lo + _BLOCK))


def _pairing_codes(E, count):
    """pairing_check(E[:count], 1e-8) of each row of E, (n, 2), as indices
    into CLASSIFICATIONS: a kept value is nonreal unless |Im| <= 1e-8 (so a
    NaN is), and two nonreal values pair if |E0 - conj(E1)| <= 1e-8."""
    nonreal = ~(np.abs(E.imag) <= 1e-8) & (np.arange(2) < count[:, None])
    d = E[:, 0] - E[:, 1].conj()
    paired = nonreal.all(axis=1) & (np.hypot(d.real, d.imag) <= 1e-8)
    return np.where(nonreal.any(axis=1), np.where(paired, 1, 2), 0)


def pt_phase_sweep(t11_values, t22_values, im_t12_values,
                   im_t21_values) -> PhaseSweep:
    """Grid sweep over PT-symmetric couplings; rows in deterministic order
    (t11 slowest, im_t21 fastest).

    Each row's phi and degenerate flag are those of clifford_angle, its
    energies those of bound_states (sorted by real, then imaginary part),
    and its classification that of pairing_check at tolerance 1e-8 on its
    n_bound energies.  The rows are solved _BLOCK at a time, into the
    columns of the returned PhaseSweep.
    """
    axes = [np.asarray(v, dtype=float)
            for v in (t11_values, t22_values, im_t12_values, im_t21_values)]
    t11, t22, b12, b21 = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    n = t11.size
    phi, degenerate = np.empty(n), np.empty(n, dtype=bool)
    n_bound, codes = np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int8)
    energies = np.empty((n, 2), dtype=complex)
    for lo in range(0, n, _BLOCK):
        s = slice(lo, lo + _BLOCK)
        # complex arrays, formed as CouplingMatrixT.det forms them, so that
        # every sign of zero matches too
        z11, z12, z21, z22 = (t11[s].astype(complex), 1j * b12[s],
                              1j * b21[s], t22[s].astype(complex))
        det = z11 * z22 - z12 * z21
        phi[s], degenerate[s] = _principal_angle((det + 4).real,
                                                 (z12 - z21).imag)
        _, energies[s], count = _decaying_states(*coefficients(z11, det, z22))
        n_bound[s], codes[s] = count, _pairing_codes(energies[s], count)
    return PhaseSweep(t11, t22, b12, b21, phi, degenerate, n_bound, energies,
                      codes)
