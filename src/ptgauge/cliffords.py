"""Generating involutions, Clifford-relation checks, rotated involutions.

The two involutions of interest are the grid parity P (index reversal) and
the sign operator R = diag(sign(x_j)).  On the staggered grid both are
exact involutions and anticommute exactly, so {I, P, R, PR} spans a real
four-dimensional algebra with generator signature (2, 0).

The rotated involution P_phi = P exp(i phi R) is Hermitian and squares to
the identity whenever P and R anticommute.  As R^2 = I it equals
cos(phi) P + i sin(phi) P R, stored as a CSR array (anti-diagonal for the
grid parity); P^2 = R^2 = I and PR = -RP make it equal the symmetric form
exp(-i phi R/2) P exp(i phi R/2) too.  All products are sparse.

verify_clifford_relations, the one relation check, returns residuals: a
record bounds them, and rotated_involution rejects a (P, R) pair beyond
1e-12 or NaN.  A sweep over phi passes one pair at every angle, so
rotated_involution keeps the last pair that passed, keyed by the bytes of
both CSR arrays, with P R: only a new or edited pair is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .linalg import worst_residual


@dataclass(frozen=True)
class CliffordReport:
    max_residual: float
    span_dim: int | None


@dataclass(frozen=True)
class RotatedInvolution:
    matrix: scipy.sparse.csr_array


def _max_abs(X) -> float:   # largest |entry| of sparse X, NaN if one is NaN
    return np.abs(X.data).max(initial=0.0)


def verify_clifford_relations(generators, m_plus: int) -> CliffordReport:
    """Residual of the anticommutation relations and of the squares: +I for
    the first m_plus generators (dense or sparse), -I for the rest.  Raises
    ValueError unless 0 <= m_plus <= len(generators) and all are square of
    one size.  For two generators and a finite residual, span_dim is the
    rank of vec{I, e1, e2, e1 e2} (4: linearly independent), else None."""
    mats = [scipy.sparse.csr_array(g) for g in generators]
    if not 0 <= m_plus <= len(mats):
        raise ValueError(f"need 0 <= m_plus <= {len(mats)}, got {m_plus}")
    dim = mats[0].shape[0] if mats else 0
    if any(g.shape != (dim, dim) for g in mats):
        raise ValueError("all generators must be square of equal dimension")
    eye = scipy.sparse.eye_array(dim, format="csr")
    residuals = []
    for i, gi in enumerate(mats):
        target = eye if i < m_plus else -eye
        residuals.append(_max_abs(gi @ gi - target))
        residuals += [_max_abs(gi @ gk + gk @ gi) for gk in mats[i + 1:]]
    res = worst_residual(residuals)
    span_dim = None
    if len(mats) == 2 and math.isfinite(res):
        basis = (eye, *mats, mats[0] @ mats[1])
        S = scipy.sparse.vstack([b.reshape((1, -1)) for b in basis]).tocoo()
        # the stack on the k positions any of the four stores: its other
        # dim^2 - k columns are zero and do not change the rank
        _, cols = np.unique(S.col, return_inverse=True)
        stack = scipy.sparse.coo_array((S.data, (S.row, cols))).toarray()
        span_dim = int(np.linalg.matrix_rank(stack, tol=1e-10 * max(1.0, res + 1)))
    return CliffordReport(max_residual=res, span_dim=span_dim)


_checked = None   # (key, P R) of the last (P, R) pair that passed the checks


def rotated_involution(parity, sign_op, phi: float) -> RotatedInvolution:
    """P_phi = cos(phi) P + i sin(phi) P R, the closed form of P exp(i phi R),
    as a CSR array from dense or sparse P and R.  Raises ValueError unless
    verify_clifford_relations finds involutions that anticommute (1e-12)."""
    global _checked
    P = scipy.sparse.csr_array(parity)
    R = scipy.sparse.csr_array(sign_op)
    key = [(A.shape, A.dtype.str, A.data.tobytes(), A.indices.tobytes(),
            A.indptr.tobytes()) for A in (P, R)]
    if _checked is None or _checked[0] != key:
        res = verify_clifford_relations([P, R], 2).max_residual
        if not res <= 1e-12:   # NaN fails as well
            raise ValueError("parity and sign operators must be involutions "
                             f"that anticommute, residual {res:.3e} > 1e-12")
        _checked = key, P @ R
    return RotatedInvolution(
        matrix=math.cos(phi) * P + 1j * math.sin(phi) * _checked[1])
