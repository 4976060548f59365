"""Gauge algebra g_Theta, its Cartan split, LTS checks, group exponentials.

Theta is fixed to the signature matrix diag(I_p, -I_q); a general real
symmetric involution can be brought to this form by an orthogonal
congruence, which callers are expected to apply first.

Elements are block matrices

    a = [[ i u ,  v  ],      u, w real antisymmetric,  v real p x q,
         [-v^T , i w ]]

which satisfy a = -a^T and Theta a^H Theta = a.  The split into the
compact part b (real, off-diagonal blocks +-v) and the noncompact part
c = i diag(u, w) is the Cartan decomposition of this set; the set closes
under the double bracket [a1, [a2, a3]] but not under the single bracket.

Closed-form exponentials:
  exp(b x): block cosine/sine form through the SVD of v, with the
            sin(s x)/s spectral function switching to its series limit x
            below a 1e-8 singular-value threshold.
  exp(c x): block-diagonal Hermitian exponential diag(e^{iux}, e^{iwx}).

Per-call cost.  The checks call these kernels thousands of times on 3x3
to 5x5 matrices, so nothing is recomputed per call that is fixed per
object.  A ThetaSignature holds its sign vector s, Theta = diag(s) and the
sign mask s s^T as read-only arrays built once, and every Theta X Theta is
the entry-wise product mask * X: for finite X this equals the two matrix
products bit for bit, since a product with a +-1 diagonal adds only exact
zeros.  An element's matrix is assembled once, on first access, and is
read-only.  make_element validates u, v, w (finite; u, w antisymmetric);
those checks imply both g_Theta conditions on the assembled matrix, so it
is not re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import expm, worst_residual


@dataclass(frozen=True)
class ThetaSignature:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 0:
            raise ValueError("need p >= 1, q >= 0")

    @property
    def m(self) -> int:
        return self.p + self.q

    @cached_property
    def signs(self) -> np.ndarray:
        """The diagonal s of Theta: p ones, then q minus ones (read-only)."""
        return _read_only(np.concatenate([np.ones(self.p), -np.ones(self.q)]))

    @cached_property
    def theta(self) -> np.ndarray:
        """Theta = diag(s) (read-only)."""
        return _read_only(np.diag(self.signs))

    @cached_property
    def mask(self) -> np.ndarray:
        """s s^T, so that Theta X Theta = mask * X (read-only)."""
        return _read_only(np.outer(self.signs, self.signs))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_antisymmetric_real(M, name, n):
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n} real")
    scale = np.abs(M).max(initial=0.0)   # NaN or inf unless M is finite
    if not np.isfinite(scale):
        raise ValueError(f"{name} must be finite")
    if np.abs(M + M.T).max(initial=0.0) > 1e-13 * max(1.0, scale):
        raise ValueError(f"{name} must be antisymmetric")
    return M


@dataclass(frozen=True)
class GaugeAlgebraElement:
    """An element of g_Theta from its blocks; u, v, w are not to be changed
    in place, since the matrix is assembled from them once."""

    sig: ThetaSignature
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        """The assembled m x m block matrix, built on first access (read-only)."""
        p, q = self.sig.p, self.sig.q
        a = np.zeros((p + q, p + q), dtype=complex)
        a[:p, :p] = 1j * self.u
        a[:p, p:] = self.v
        a[p:, :p] = -self.v.T
        a[p:, p:] = 1j * self.w
        return _read_only(a)

    @property
    def gauge_potential(self) -> np.ndarray:
        """A = i a, the constant non-Abelian gauge potential."""
        return 1j * self.matrix


@dataclass(frozen=True)
class CartanComponents:
    b: np.ndarray   # compact part: real, off-diagonal blocks
    c: np.ndarray   # noncompact part: i * diag(u, w), Hermitian


def make_element(sig: ThetaSignature, u, v, w) -> GaugeAlgebraElement:
    """The checked constructor: u, v, w finite and real, u and w antisymmetric
    to 1e-13 of their scale.

    Raises ValueError otherwise.  Both defining residuals of the assembled
    matrix a, |a + a^T| and |Theta a^H Theta - a|, equal
    max(|u + u^T|, |w + w^T|), and the scale max(1, |a|) is at least that of
    u and of w, so these checks imply a in g_Theta to 1e-13 of its scale.
    """
    p, q = sig.p, sig.q
    u = _check_antisymmetric_real(u, "u", p)
    w = _check_antisymmetric_real(w, "w", q)
    v = np.asarray(v, dtype=float).reshape(p, q)
    if not np.isfinite(v).all():
        raise ValueError("v must be finite")
    return GaugeAlgebraElement(sig=sig, u=u, v=v, w=w)


def random_element(sig: ThetaSignature, rng: np.random.Generator,
                   scale: float = 1.0) -> GaugeAlgebraElement:
    p, q = sig.p, sig.q
    u = rng.standard_normal((p, p)) * scale
    w = rng.standard_normal((q, q)) * scale
    v = rng.standard_normal((p, q)) * scale
    return make_element(sig, (u - u.T) / 2, v, (w - w.T) / 2)


def membership_residual(X, sig: ThetaSignature) -> float:
    """Distance of X from g_Theta: max of the two defining residuals."""
    X = np.asarray(X, dtype=complex)
    return float(max(np.abs(X + X.T).max(),
                     np.abs(sig.mask * X.conj().T - X).max()))


def cartan_split(a: GaugeAlgebraElement) -> CartanComponents:
    p, q = a.sig.p, a.sig.q
    m = p + q
    b = np.zeros((m, m), dtype=complex)
    b[:p, p:] = a.v
    b[p:, :p] = -a.v.T
    c = np.zeros((m, m), dtype=complex)
    c[:p, :p] = 1j * a.u
    c[p:, p:] = 1j * a.w
    return CartanComponents(b=b, c=c)


@dataclass(frozen=True)
class LtsReport:
    closure_residual: float
    binary_escape: float
    scale: float


def lts_check(a1: GaugeAlgebraElement, a2: GaugeAlgebraElement,
              a3: GaugeAlgebraElement) -> LtsReport:
    """Ternary closure [a1,[a2,a3]] in g_Theta vs binary escape of [a1,a2]."""
    if not (a1.sig == a2.sig == a3.sig):
        raise ValueError("signature mismatch")
    sig = a1.sig
    A1, A2, A3 = a1.matrix, a2.matrix, a3.matrix
    inner = A2 @ A3 - A3 @ A2
    triple = A1 @ inner - inner @ A1
    binary = A1 @ A2 - A2 @ A1
    scale = max(1.0, float(np.abs(A1).max() * np.abs(A2).max() * np.abs(A3).max()))
    return LtsReport(
        closure_residual=membership_residual(triple, sig),
        binary_escape=membership_residual(binary, sig),
        scale=scale,
    )


@dataclass(frozen=True)
class WickReport:
    su_pq_residual: float
    antisymmetry_residual: float
    compact_block_residual: float
    noncompact_block_residual: float


def wick_check(a: GaugeAlgebraElement) -> WickReport:
    """Membership of f = -i a in so(m,C) intersect su(p,q) and block placement.

    -i b must sit in the off-diagonal (coset) block of su(p,q) and -i c in
    the block-diagonal subalgebra part.
    """
    sig = a.sig
    p = sig.p
    f = -1j * a.matrix
    r_su = float(np.abs(sig.mask * f.conj().T + f).max())
    r_as = float(np.abs(f + f.T).max())
    comp = cartan_split(a)
    fb = -1j * comp.b
    fc = -1j * comp.c
    r_q = worst_residual((np.abs(fb[:p, :p]).max(initial=0.0),
                          np.abs(fb[p:, p:]).max(initial=0.0)))
    r_l = worst_residual((np.abs(fc[:p, p:]).max(initial=0.0),
                          np.abs(fc[p:, :p]).max(initial=0.0)))
    return WickReport(su_pq_residual=r_su, antisymmetry_residual=r_as,
                      compact_block_residual=r_q, noncompact_block_residual=r_l)


_SING_TOL = 1e-8  # below this the sin(s x)/s spectral function uses its limit x


def exp_compact(comp: CartanComponents, sig: ThetaSignature, x: float) -> np.ndarray:
    """Closed-form exp(b x) for b in the compact (off-diagonal) part."""
    p, q = sig.p, sig.q
    v = comp.b[:p, p:].real
    if q == 0 or p == 0:
        return np.eye(sig.m)
    W, s, Zt = np.linalg.svd(v)        # v = W diag(s) Zt, W pxp, Zt qxq slices
    s_full_p = np.zeros(p)
    s_full_q = np.zeros(q)
    k = min(p, q)
    s_full_p[:k] = s
    s_full_q[:k] = s
    Z = Zt.T

    def sinc_s(s_arr):
        out = np.empty_like(s_arr)
        small = s_arr < _SING_TOL
        out[small] = x
        out[~small] = np.sin(s_arr[~small] * x) / s_arr[~small]
        return out

    cos_p = (W * np.cos(s_full_p * x)) @ W.T
    cos_q = (Z * np.cos(s_full_q * x)) @ Z.T
    sin_over = (Z * sinc_s(s_full_q)) @ Z.T
    U = np.zeros((sig.m, sig.m))
    U[:p, :p] = cos_p
    U[:p, p:] = v @ sin_over
    U[p:, :p] = -sin_over @ v.T
    U[p:, p:] = cos_q
    return U


def exp_noncompact(comp: CartanComponents, sig: ThetaSignature, x: float) -> np.ndarray:
    """Block-diagonal exp(c x) = diag(e^{iux}, e^{iwx}), Hermitian positive."""
    p = sig.p
    U = np.eye(sig.m, dtype=complex)
    if p > 0:
        U[:p, :p] = expm(comp.c[:p, :p] * x)
    if sig.q > 0:
        U[p:, p:] = expm(comp.c[p:, p:] * x)
    return U


@dataclass(frozen=True)
class PolarFactors:
    U_k: np.ndarray
    U_p: np.ndarray
    residuals: dict


def group_polar(U, sig: ThetaSignature) -> PolarFactors:
    """Polar split U = U_k U_p with U_p = (U^H U)^{1/2}; validates membership.

    The factors come from the SVD U = W Sigma V^H: U_p = V Sigma V^H,
    U_k = W V^H and log U_p = V log(Sigma) V^H.  Forming U^H U instead
    would square the condition number of U, and its eigenvectors lose
    about eps cond(U)^2.
    """
    U = np.asarray(U, dtype=complex)
    W, s, Vh = np.linalg.svd(U)
    if not s.min() > 0:
        raise np.linalg.LinAlgError("U is singular; no polar factorization")
    V = Vh.conj().T
    U_p = (V * s) @ Vh
    U_k = W @ Vh
    log_p = (V * np.log(s)) @ Vh
    p = sig.p
    # log_p must be i * real-antisymmetric, block-diagonal in the signature
    lp = -1j * log_p
    residuals = {
        "U_k_unitary": float(np.abs(U_k.conj().T @ U_k - np.eye(sig.m)).max()),
        "U_k_real": float(np.abs(U_k.imag).max()),
        "U_p_hermitian": float(np.abs(U_p - U_p.conj().T).max()),
        "log_p_offblock": worst_residual(
            (np.abs(log_p[:p, p:]).max(initial=0.0),
             np.abs(log_p[p:, :p]).max(initial=0.0))),
        "log_p_structure": worst_residual((np.abs(lp.imag).max(),
                                           np.abs(lp + lp.T).max())),
    }
    return PolarFactors(U_k=U_k, U_p=U_p, residuals=residuals)


@dataclass(frozen=True)
class ParityRelationsReport:
    compact_residual: float
    noncompact_residual: float
    metric_residual: float

    @property
    def max_residual(self) -> float:
        return worst_residual((self.compact_residual, self.noncompact_residual,
                               self.metric_residual))


def parity_relations_check(a: GaugeAlgebraElement, x: float) -> ParityRelationsReport:
    """Constant-matrix content of the reversed parity relations and eta = P.

    Checks Theta U_k(-x) Theta = U_k(x), Theta U_p(-x) Theta = U_p(x)^{-1}
    and U(x)^H Theta U(-x) = Theta with U = U_k U_p from the split parts.
    The last two residuals are relative to |U_p(x)|_max |U_p(-x)|_max
    (largest entry moduli, a product >= 1 since U_p(-x) = U_p(x)^{-1} is
    positive definite): their rounding error grows like e^{|c||x|}.
    """
    sig = a.sig
    comp = cartan_split(a)
    Uk_p, Uk_m = exp_compact(comp, sig, x), exp_compact(comp, sig, -x)
    Up_p, Up_m = exp_noncompact(comp, sig, x), exp_noncompact(comp, sig, -x)
    scale = np.abs(Up_p).max() * np.abs(Up_m).max()
    r_k = float(np.abs(sig.mask * Uk_m - Uk_p).max())
    r_p = float(np.abs(sig.mask * Up_m - np.linalg.inv(Up_p)).max() / scale)
    U_pos = Uk_p @ Up_p
    U_neg = Uk_m @ Up_m
    # U^H Theta is U^H with its columns scaled by s
    r_eta = float(np.abs((U_pos.conj().T * sig.signs) @ U_neg - sig.theta).max()
                  / scale)
    return ParityRelationsReport(compact_residual=r_k, noncompact_residual=r_p,
                                 metric_residual=r_eta)
