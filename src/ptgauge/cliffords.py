"""Generating involutions, Clifford-relation checks, rotated involutions.

The two involutions of interest are the grid parity P (index reversal) and
the sign operator R = diag(sign(x_j)).  On the staggered grid both are
exact involutions and anticommute exactly, so {I, P, R, PR} spans a real
four-dimensional algebra with generator signature (2, 0).

The rotated involution P_phi = P exp(i phi R) is Hermitian and squares to
the identity whenever P and R anticommute.  As R^2 = I it equals
cos(phi) P + i sin(phi) P R, stored as a CSR array (anti-diagonal for the
grid parity); P^2 = R^2 = I and PR = -RP, which rotated_involution checks,
make it equal the symmetric form exp(-i phi R/2) P exp(i phi R/2) too.
All products are sparse.  verify_clifford_relations returns residuals
only; the records that bound them decide pass or fail.

A sweep over phi passes one (P, R) pair at every angle, so
rotated_involution keeps the last pair that passed its checks, keyed by
the bytes of both CSR arrays, with P R: only a new or edited pair is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse

from .linalg import worst_residual


@dataclass(frozen=True)
class CliffordGenerators:
    """Concrete matrix generators e_k with squares +I (first m_plus) / -I,
    dense or sparse; the checks take sparse products of them."""

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
    matrix: scipy.sparse.csr_array


def _max_abs(X) -> float:   # largest |entry| of sparse X, NaN if one is NaN
    return np.abs(X.data).max(initial=0.0)


def verify_clifford_relations(gens: CliffordGenerators) -> CliffordReport:
    """Residual of the anticommutation relations and prescribed squares.

    For two generators the rank of vec{I, e1, e2, e1 e2} is reported as
    span_dim (4 means the products are linearly independent).
    """
    mats = [scipy.sparse.csr_array(g) for g in gens.generators]
    dim = mats[0].shape[0]
    if any(g.shape != (dim, dim) for g in mats):
        raise ValueError("all generators must be square of equal dimension")
    eye = scipy.sparse.eye_array(dim, format="csr")
    residuals = []
    for i, gi in enumerate(mats):
        target = eye if i < gens.m_plus else -eye
        residuals.append(_max_abs(gi @ gi - target))
        residuals += [_max_abs(gi @ gk + gk @ gi) for gk in mats[i + 1:]]
    res = worst_residual(residuals)
    span_dim = None
    if len(mats) == 2:
        basis = (eye, *mats, mats[0] @ mats[1])
        stack = scipy.sparse.vstack([b.reshape((1, -1)) for b in basis]).toarray()
        span_dim = int(np.linalg.matrix_rank(stack, tol=1e-10 * max(1.0, res + 1)))
    return CliffordReport(max_residual=res, span_dim=span_dim)


_checked = None   # (key, P R) of the last (P, R) pair that passed the checks


def rotated_involution(parity, sign_op, phi: float) -> RotatedInvolution:
    """P_phi = cos(phi) P + i sin(phi) P R, the closed form of P exp(i phi R),
    as a CSR array from dense or sparse P and R.  Raises ValueError unless
    P and R are involutions that anticommute (each to 1e-12)."""
    global _checked
    P = scipy.sparse.csr_array(parity)
    R = scipy.sparse.csr_array(sign_op)
    key = [(A.shape, A.dtype.str, A.data.tobytes(), A.indices.tobytes(),
            A.indptr.tobytes()) for A in (P, R)]
    if _checked is None or _checked[0] != key:
        PR = P @ R
        eye = scipy.sparse.eye_array(P.shape[0], format="csr")
        if _max_abs(P @ P - eye) > 1e-12 or _max_abs(R @ R - eye) > 1e-12:
            raise ValueError("parity and sign operators must be involutions")
        if _max_abs(PR + R @ P) > 1e-12:
            raise ValueError("parity and sign operators must anticommute")
        _checked = key, PR
    return RotatedInvolution(
        matrix=math.cos(phi) * P + 1j * math.sin(phi) * _checked[1])
