"""PT-symmetric Jaynes-Cummings construction on a truncated Fock space.

Ladder operators follow d = (ip + x)/sqrt(2), d^H = (-ip + x)/sqrt(2), so
d|n> = sqrt(n)|n-1> and N = d^H d is diagonal 0..n_max.  Truncation is a
hard cut at n_max: the coupling row out of the top level is dropped and
the resulting error is measured by rebuilding at 1.5 n_max, not assumed.

Tensor ordering is Fock (x) level throughout: Fock level n occupies
rows n*m .. n*m+m-1.

The multi-level Hamiltonian is

    H_jc = 2 [ N (x) I_m + sqrt(2) (d^H (x) c + d (x) c^T) + I_F (x) omega ]

with c the strictly upper triangular part of a gauge algebra element a
(a = c - c^T, c^m = 0): nilpotent_split returns c, and build_jc takes it
and reads m from its shape.  The same physics on the grid is
H_g = (p - A)^2 + V with A = i a and
V(x) = (x^2 - 1) I + 2 (c + c^T) x + a^2 + 2 omega: expanding and using
x = (d + d^H)/sqrt(2), p = -i (d - d^H)/sqrt(2) gives exactly the ladder
form above.  Note the attachment of c to the creation operator; writing
the coupling as d (x) c + d^H (x) c^T instead changes the spectrum
whenever omega is level-asymmetric, and the dual build detects it at
O(1).  One convention is enough: conjugation by the Fock parity
diag((-1)^n) (x) I maps d to -d, so the builds from a and -a are similar.

In that order H_jc is block-tridiagonal with m x m blocks, and build_jc
stores it as a CSR array from linalg.block_tridiagonal.  The lowest modes
of the grid build come from linalg.lowest_modes (certified sparse
shift-invert); the whole Fock spectrum comes from eig, which takes the band
driver, without densifying, for a Hermitian build (real c) once its
bandwidth kd has 32 kd < m (n_max + 1).  Every comparison cuts its
spectra at a common pair-safe k (linalg.lowest_common), so no cut splits
a conjugate pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .cartan import GaugeAlgebraElement, ThetaSignature
from .linalg import (Grid1D, block_tridiagonal, eig, lowest_common,
                     lowest_modes, match_spectra)
from .schrodinger import ConstantGauge, MatrixPotential, build_gauged

N_COMPARE = 6   # lowest modes compared between the grid and Fock builds


@dataclass(frozen=True)
class LevelEnergies:
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.omega)


def nilpotent_split(el: GaugeAlgebraElement) -> np.ndarray:
    """c, strictly upper triangular (hence nilpotent), with a = c - c^T."""
    a = el.matrix
    c = np.triu(a, k=1)
    recon = float(np.abs((c - c.T) - a).max())
    if recon > 1e-13 * max(1.0, np.abs(a).max()):
        raise ValueError(f"split reconstruction failed, residual {recon:.2e}")
    return c


def build_jc(c: np.ndarray, omega: LevelEnergies,
             n_max: int) -> scipy.sparse.csr_array:
    """H_jc = 2 [N (x) I + sqrt2 (d^H (x) c + d (x) c^T) + I (x) omega] as a
    CSR array: 2 (n I + omega) at block (n, n), 2 sqrt2 sqrt(n+1) c^T at
    (n, n + 1) from d, and 2 sqrt2 sqrt(n+1) c at (n + 1, n) from d^H."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    m = c.shape[0]
    if omega.omega.shape != (m,):
        raise ValueError("omega length must match the algebra dimension")
    n = np.arange(n_max + 1)[:, None, None]
    root = np.sqrt(n[1:])   # sqrt(n + 1) for n = 0 .. n_max - 1
    return block_tridiagonal(2 * (np.sqrt(2) * (root * c)),
                             2 * (n * np.eye(m) + omega.matrix),
                             2 * (np.sqrt(2) * (root * c.T)))


def jc_pt_check(H_jc, sig: ThetaSignature) -> float:
    """Residual of (Pi_F (x) Theta) conj(H) (Pi_F (x) Theta) = H for a dense
    or sparse H.

    Fock-space parity is Pi_F = diag((-1)^n) on the dim H_jc / m Fock
    levels, so S = Pi_F (x) Theta is the sign vector s = kron((-1)^n, s_Theta)
    and the residual is the largest |s_k s_l conj(H_kl) - H_kl| over the
    stored entries; raises ValueError unless m divides dim H_jc.
    """
    fock_dim, rest = divmod(H_jc.shape[0], sig.m)
    if rest:
        raise ValueError(f"dimension {H_jc.shape[0]} is not a multiple of "
                         f"m = {sig.m}")
    s = np.kron((-1.0) ** np.arange(fock_dim), sig.signs)
    H = scipy.sparse.coo_array(H_jc)
    flipped = s[H.row] * s[H.col] * H.data.conj()
    return float(np.abs(flipped - H.data).max(initial=0.0))


@dataclass(frozen=True)
class JcEquivalenceReport:
    max_dev: float               # lowest-K deviation, grid vs Fock build
    truncation_shift: float      # change of retained levels at 1.5 n_max
    grid_eigenvalues: np.ndarray
    fock_eigenvalues: np.ndarray


def require_oscillator_box(grid: Grid1D, n_max: int) -> None:
    """Raise ValueError unless the grid reaches past the n_max-th turning point."""
    box = (grid.half_count - 0.5) * grid.spacing   # the outermost node
    needed = np.sqrt(2 * n_max) + 4
    if box < needed:
        raise ValueError(
            f"grid box half-width {box:.2f} too small to resolve n_max={n_max} "
            f"oscillator states (need >= {needed:.2f})")


def jc_equivalence_check(el: GaugeAlgebraElement, omega: LevelEnergies,
                         grid: Grid1D, n_max: int) -> JcEquivalenceReport:
    """Cross-validate the grid build of (p - A)^2 + V against the Fock build
    on the lowest N_COMPARE modes (at most n_max // 2)."""
    require_oscillator_box(grid, n_max)
    a, c = el.matrix, nilpotent_split(el)
    m = a.shape[0]
    a2 = a @ a
    cc = c + c.T

    def V(x):
        return ((x**2 - 1) * np.eye(m) + 2 * cc * x + a2 + 2 * omega.matrix)

    H_g = build_gauged(ConstantGauge(A=1j * a), MatrixPotential(m=m, V=V), grid)
    k = min(N_COMPARE, n_max // 2)
    fock = eig(build_jc(c, omega, n_max))
    low_grid, low_fock = lowest_common(k, lambda j: lowest_modes(H_g, j), fock)
    fock_big = eig(build_jc(c, omega, int(np.ceil(1.5 * n_max))))
    low_n, low_big = lowest_common(k, fock, fock_big)   # truncation sanity
    return JcEquivalenceReport(
        max_dev=float(match_spectra(low_grid, low_fock).max()),
        truncation_shift=float(match_spectra(low_n, low_big).max()),
        grid_eigenvalues=low_grid, fock_eigenvalues=low_fock)
