"""The generating pair (P, R), its Clifford relations, rotated involutions.

The two involutions of interest are the grid parity P (index reversal) and
the sign operator R = diag(sign(x_j)).  On the staggered grid both are
exact involutions and anticommute exactly, so {I, P, R, PR} spans a real
four-dimensional algebra with generator signature (2, 0); the record
`clifford/span_dim_4`, the one reader of that dimension, takes its rank.

The rotated involution P_phi = P exp(i phi R) is Hermitian and squares to
the identity whenever P and R anticommute.  As R^2 = I it equals
cos(phi) P + i sin(phi) P R, stored as a CSR array (anti-diagonal for the
grid parity); P^2 = R^2 = I and PR = -RP make it equal the symmetric form
exp(-i phi R/2) P exp(i phi R/2) too.  All products are sparse.

verify_clifford_relations, the one relation check, returns the worst
residual of P^2 = I, R^2 = I and PR + RP = 0: a record bounds it, and
rotated_involution rejects a (P, R) pair beyond 1e-12 or NaN.  A sweep over
phi passes one pair at every angle, so rotated_involution keeps the last
pair that passed, keyed by the bytes of both CSR arrays, with P R: only a
new or edited pair is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .linalg import worst_residual


@dataclass(frozen=True)
class RotatedInvolution:
    matrix: scipy.sparse.csr_array


def verify_clifford_relations(P, R) -> float:
    """Worst residual of P^2 = I, R^2 = I and PR + RP = 0 for dense or
    sparse P and R, NaN if an entry is NaN.  Raises ValueError unless both
    are square of one size."""
    P, R = scipy.sparse.csr_array(P), scipy.sparse.csr_array(R)
    dim = P.shape[0]
    if P.shape != (dim, dim) or R.shape != (dim, dim):
        raise ValueError("P and R must be square of equal dimension")
    eye = scipy.sparse.eye_array(dim, format="csr")
    # the largest |entry| of each sparse residual, NaN if one is NaN
    return worst_residual(np.abs(X.data).max(initial=0.0)
                          for X in (P @ P - eye, P @ R + R @ P, R @ R - eye))


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
        res = verify_clifford_relations(P, R)
        if not res <= 1e-12:   # NaN fails as well
            raise ValueError("parity and sign operators must be involutions "
                             f"that anticommute, residual {res:.3e} > 1e-12")
        _checked = key, P @ R
    return RotatedInvolution(
        matrix=math.cos(phi) * P + 1j * math.sin(phi) * _checked[1])
