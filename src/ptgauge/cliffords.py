"""Generating involutions, Clifford-relation checks, rotated involutions.

The two involutions of interest are the grid parity P (index reversal) and
the sign operator R = diag(sign(x_j)).  On the staggered grid both are
exact involutions and anticommute exactly, so {I, P, R, PR} spans a real
four-dimensional algebra with generator signature (2, 0).

The rotated involution  P_phi = P exp(i phi R)  is Hermitian and squares
to the identity whenever P and R anticommute; both defining expressions
(one-sided and symmetric conjugation) are computed, and rotated_involution
raises if they differ by more than 1e-12.  verify_clifford_relations
returns residuals only; the records that bound them decide pass or fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import densify, expm, worst_residual


@dataclass(frozen=True)
class CliffordGenerators:
    """Concrete matrix generators e_k with squares +I (first m_plus) / -I,
    dense or sparse; the checks densify them (small grids, n <= 128)."""

    m_plus: int
    m_minus: int
    generators: Sequence[np.ndarray]

    def __post_init__(self):
        if len(self.generators) != self.m_plus + self.m_minus:
            raise ValueError("signature does not match number of generators")


@dataclass(frozen=True)
class CliffordReport:
    max_residual: float
    span_dim: int | None


@dataclass(frozen=True)
class RotatedInvolution:
    matrix: np.ndarray


def verify_clifford_relations(gens: CliffordGenerators) -> CliffordReport:
    """Residual of the anticommutation relations and prescribed squares.

    For two generators the rank of vec{I, e1, e2, e1 e2} is reported as
    span_dim (4 means the products are linearly independent).
    """
    mats = [densify(g) for g in gens.generators]
    dim = mats[0].shape[0]
    for g in mats:
        if g.shape != (dim, dim):
            raise ValueError("all generators must be square of equal dimension")
    eye = np.eye(dim)
    residuals = []
    for i, gi in enumerate(mats):
        target = eye if i < gens.m_plus else -eye
        residuals.append(np.abs(gi @ gi - target).max())
        residuals += [np.abs(gi @ gk + gk @ gi).max() for gk in mats[i + 1:]]
    res = worst_residual(residuals)
    span_dim = None
    if len(mats) == 2:
        basis = [eye, mats[0], mats[1], mats[0] @ mats[1]]
        stack = np.stack([b.ravel() for b in basis])
        span_dim = int(np.linalg.matrix_rank(stack, tol=1e-10 * max(1.0, res + 1)))
    return CliffordReport(max_residual=res, span_dim=span_dim)


def rotated_involution(parity, sign_op, phi: float) -> RotatedInvolution:
    """Build P_phi = P exp(i phi R), cross-checked against the symmetric form.

    parity and sign_op are dense or sparse matrices; P_phi is dense.
    """
    P = densify(parity)
    R = densify(sign_op)
    eye = np.eye(P.shape[0])
    if np.abs(P @ P - eye).max() > 1e-12 or np.abs(R @ R - eye).max() > 1e-12:
        raise ValueError("parity and sign operators must be involutions")
    if np.abs(P @ R + R @ P).max() > 1e-12:
        raise ValueError("parity and sign operators must anticommute")
    one_sided = P @ expm(1j * phi * R)
    symmetric = expm(-1j * phi * R / 2) @ P @ expm(1j * phi * R / 2)
    agreement = float(np.abs(one_sided - symmetric).max())
    if agreement > 1e-12:
        raise ValueError(
            f"defining expressions for P_phi disagree by {agreement:.3e}"
        )
    return RotatedInvolution(matrix=one_sided)
