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

Stacks.  Every kernel works on the trailing (m, m) axes, so one body
serves one matrix and a stack.  An element whose u, v, w carry leading
axes, say (k,), is a stack of k elements: its matrix is (k, m, m), it is
indexed like an array (stack[i] is the i-th element), and lts_check,
membership_residual, wick_check, exp_compact, exp_noncompact,
parity_relations_check and group_polar give an array of per-element
residuals where one element gives a float.  x may be an array that
broadcasts against the leading axes; parity_relations_check stacks x and
-x, so it takes one SVD and one stacked expm per block.  Each slice of a
stacked result equals the per-element call bit for bit: numpy's stacked
matmul, svd and inv and scipy's stacked expm run the same kernel on every
slice, and the entry-wise steps do not depend on the stack.

Per-call cost.  The checks run these kernels on thousands of 3x3 to 5x5
matrices, as stacks and one at a time; the per-element cost is Python
overhead, so nothing fixed per object is recomputed per call.  A
ThetaSignature holds s, Theta = diag(s), the sign mask s s^T (Theta X Theta
is mask * X, equal to the two products bit for bit for finite X) and the
draw map, all read-only and built once.  A sampled element is built as
its matrix, through the draw map, and only checked finite: its u, v, w
are views of that matrix.  make_element checks the u, v, w of a caller
(finite; u, w antisymmetric to 1e-13 of each slice's own scale), which
imply both g_Theta conditions, and assembles the matrix once, on first
access.  Every element's matrix is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import expm, max_abs


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

    @property
    def n_draws(self) -> int:
        """Normal draws behind one random element: u, then w, then v."""
        return self.p * self.p + self.q * self.q + self.p * self.q

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

    @cached_property
    def draw_map(self) -> np.ndarray:
        """The (n_draws, m^2) map from draws z to the entries z @ map before
        halving: +-i at the mirrored entries of each u or w draw (0 on the
        diagonal), +-1 at those of each v draw (read-only)."""
        p, q, n = self.p, self.q, self.n_draws
        e = np.eye(n)
        u = e[:, :p * p].reshape(n, p, p)
        v = e[:, p * p + q * q:].reshape(n, p, q)
        w = e[:, p * p:p * p + q * q].reshape(n, q, q)
        a = GaugeAlgebraElement(self, u - u.mT, v, w - w.mT).matrix
        return _read_only(a.reshape(n, -1))

    @cached_property
    def draw_scale(self) -> np.ndarray:
        """1/2 on the u and w blocks, 1 on the v blocks (read-only)."""
        return _read_only(np.where(self.mask < 0, 1.0, 0.5))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _out(r):
    """A float for one element, the array of per-element values for a stack."""
    return float(r) if r.ndim == 0 else r


def _all(b) -> bool:
    """True if every entry of a boolean scalar or array is (a scalar costs no
    reduction, which is most of a per-element check)."""
    return bool(b) if b.ndim == 0 else bool(b.all())


def _check_antisymmetric_real(M, name, n):
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (n, n):
        raise ValueError(f"{name} must be {n}x{n} real")
    scale = max_abs(M)   # per slice; NaN or inf unless the slice is finite
    if not _all(np.isfinite(scale)):
        raise ValueError(f"{name} must be finite")
    # |M + M^T| <= 1e-13 max(1, scale), slice by slice, as two comparisons
    gap = max_abs(M + M.mT)
    if not _all((gap <= 1e-13) | (gap <= 1e-13 * scale)):
        raise ValueError(f"{name} must be antisymmetric")
    return M


@dataclass(frozen=True)
class GaugeAlgebraElement:
    """An element of g_Theta from its blocks, or a stack of elements when
    u, v, w carry leading axes; u, v, w are not to be changed in place,
    since the matrix is assembled from them once."""

    sig: ThetaSignature
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __getitem__(self, index) -> "GaugeAlgebraElement":
        """The element or sub-stack at index of the leading axes."""
        return GaugeAlgebraElement(sig=self.sig, u=self.u[index],
                                   v=self.v[index], w=self.w[index])

    @cached_property
    def matrix(self) -> np.ndarray:
        """The assembled (..., m, m) block matrix, built on first access
        (read-only)."""
        p, m = self.sig.p, self.sig.m
        a = np.zeros(self.v.shape[:-2] + (m, m), dtype=complex)
        a[..., :p, :p] = 1j * self.u
        a[..., :p, p:] = self.v
        a[..., p:, :p] = -self.v.mT
        a[..., p:, p:] = 1j * self.w
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
    to 1e-13 of their scale.  u (..., p, p) and w (..., q, q) with leading
    axes make a stack; v is then reshaped to (..., p, q).

    Raises ValueError otherwise, if any element of a stack fails.  Both
    defining residuals of the assembled matrix a, |a + a^T| and
    |Theta a^H Theta - a|, equal max(|u + u^T|, |w + w^T|), and the scale
    max(1, |a|) is at least that of u and of w, so these checks imply a in
    g_Theta to 1e-13 of its scale.
    """
    p, q = sig.p, sig.q
    u = _check_antisymmetric_real(u, "u", p)
    w = _check_antisymmetric_real(w, "w", q)
    if u.shape[:-2] != w.shape[:-2]:
        raise ValueError("u and w must have the same leading axes")
    v = np.asarray(v, dtype=float).reshape(u.shape[:-2] + (p, q))
    if not np.isfinite(v).all():
        raise ValueError("v must be finite")
    return GaugeAlgebraElement(sig=sig, u=u, v=v, w=w)


def elements_from_draws(sig: ThetaSignature, z) -> GaugeAlgebraElement:
    """The element(s) random_element makes from its normal draws z, of shape
    (..., sig.n_draws): u, then w, then v, row-major; u and w are
    antisymmetrized as (M - M^T) / 2.  The matrix is (z @ draw_map) *
    draw_scale, whose entries round(z_ij - z_ji) / 2 equal make_element's
    route (up to signs of zeros); it is antisymmetric by construction, so
    ValueError is raised only if z or a z_ij - z_ji is not finite."""
    z = np.asarray(z, dtype=float)
    p, m = sig.p, sig.m
    a = _read_only((z @ sig.draw_map).reshape(z.shape[:-1] + (m, m))
                   * sig.draw_scale)
    if not (np.isfinite(z).all() and np.isfinite(a).all()):
        raise ValueError("draws and their differences must be finite")
    el = GaugeAlgebraElement(sig=sig, u=a[..., :p, :p].imag,
                             v=a[..., :p, p:].real, w=a[..., p:, p:].imag)
    el.__dict__["matrix"] = a   # the cached_property's slot
    return el


def random_element(sig: ThetaSignature, rng: np.random.Generator,
                   scale: float = 1.0) -> GaugeAlgebraElement:
    return elements_from_draws(sig, rng.standard_normal(sig.n_draws) * scale)


def random_elements(sig: ThetaSignature, rng: np.random.Generator,
                    shape, scale: float = 1.0) -> GaugeAlgebraElement:
    """A stack of the given leading shape, drawn in row-major order: the
    generator ends where as many random_element calls leave it, and each
    element equals theirs bit for bit."""
    shape = tuple(np.atleast_1d(shape))
    return elements_from_draws(
        sig, rng.standard_normal(shape + (sig.n_draws,)) * scale)


def membership_residual(X, sig: ThetaSignature):
    """Distance of X from g_Theta: max of the two defining residuals."""
    X = np.asarray(X, dtype=complex)
    return _out(np.maximum(np.abs(X + X.mT), np.abs(sig.mask * X.conj().mT - X))
                .max(axis=(-2, -1), initial=0.0))


def cartan_split(a: GaugeAlgebraElement) -> CartanComponents:
    """b is the matrix on the v blocks (where mask < 0), c the rest."""
    vblocks = a.sig.mask < 0
    return CartanComponents(b=np.where(vblocks, a.matrix, 0),
                            c=np.where(vblocks, 0, a.matrix))


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
    return LtsReport(
        closure_residual=membership_residual(triple, sig),
        binary_escape=membership_residual(binary, sig),
        scale=_out(np.maximum(1.0, max_abs(A1) * max_abs(A2) * max_abs(A3))),
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
    comp = cartan_split(a)
    fb = -1j * comp.b
    fc = -1j * comp.c
    return WickReport(
        su_pq_residual=_out(max_abs(sig.mask * f.conj().mT + f)),
        antisymmetry_residual=_out(max_abs(f + f.mT)),
        compact_block_residual=_out(np.maximum(max_abs(fb[..., :p, :p]),
                                               max_abs(fb[..., p:, p:]))),
        noncompact_block_residual=_out(np.maximum(max_abs(fc[..., :p, p:]),
                                                  max_abs(fc[..., p:, :p]))))


_SING_TOL = 1e-8  # below this the sin(s x)/s spectral function uses its limit x


def exp_compact(comp: CartanComponents, sig: ThetaSignature, x) -> np.ndarray:
    """Closed-form exp(b x) for b in the compact (off-diagonal) part; x is a
    number or an array that broadcasts against the leading axes of b."""
    p, q, m = sig.p, sig.q, sig.m
    v = comp.b[..., :p, p:].real
    x = np.asarray(x, dtype=float)
    lead = np.broadcast_shapes(v.shape[:-2], x.shape)
    if q == 0:
        return np.broadcast_to(np.eye(m), lead + (m, m)).copy()
    W, s, Zt = np.linalg.svd(v)   # v = W diag(s) Zt, W pxp, Zt qxq slices
    k = min(p, q)
    xs = x[..., None]             # x against the singular-value axis
    s_p = np.zeros(s.shape[:-1] + (p,))
    s_q = np.zeros(s.shape[:-1] + (q,))
    s_p[..., :k] = s
    s_q[..., :k] = s
    small = s_q < _SING_TOL
    sinc_q = np.where(small, xs, np.sin(s_q * xs) / np.where(small, 1.0, s_q))
    Z = Zt.mT

    cos_p = (W * np.cos(s_p * xs)[..., None, :]) @ W.mT
    cos_q = (Z * np.cos(s_q * xs)[..., None, :]) @ Z.mT
    sin_over = (Z * sinc_q[..., None, :]) @ Z.mT
    U = np.zeros(lead + (m, m))
    U[..., :p, :p] = cos_p
    U[..., :p, p:] = v @ sin_over
    U[..., p:, :p] = -sin_over @ v.mT
    U[..., p:, p:] = cos_q
    return U


def exp_noncompact(comp: CartanComponents, sig: ThetaSignature, x) -> np.ndarray:
    """Block-diagonal exp(c x) = diag(e^{iux}, e^{iwx}), Hermitian positive;
    x is a number or an array that broadcasts against the leading axes of c."""
    p = sig.p
    c = comp.c
    x = np.asarray(x, dtype=float)[..., None, None]
    U = np.zeros(np.broadcast_shapes(c.shape, x.shape), dtype=complex)
    U[..., :p, :p] = expm(c[..., :p, :p] * x)
    if sig.q > 0:
        U[..., p:, p:] = expm(c[..., p:, p:] * x)
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
    about eps cond(U)^2.  U may be a (..., m, m) stack; it raises
    LinAlgError if any matrix of it is singular.
    """
    U = np.asarray(U, dtype=complex)
    W, s, Vh = np.linalg.svd(U)
    if not (s.min(axis=-1) > 0).all():
        raise np.linalg.LinAlgError("U is singular; no polar factorization")
    V = Vh.conj().mT
    U_p = (V * s[..., None, :]) @ Vh
    U_k = W @ Vh
    log_p = (V * np.log(s)[..., None, :]) @ Vh
    p = sig.p
    # log_p must be i * real-antisymmetric, block-diagonal in the signature
    lp = -1j * log_p
    residuals = {
        "U_k_unitary": max_abs(U_k.conj().mT @ U_k - np.eye(sig.m)),
        "U_k_real": max_abs(U_k.imag),
        "U_p_hermitian": max_abs(U_p - U_p.conj().mT),
        "log_p_offblock": np.maximum(max_abs(log_p[..., :p, p:]),
                                     max_abs(log_p[..., p:, :p])),
        "log_p_structure": np.maximum(max_abs(lp.imag), max_abs(lp + lp.mT)),
    }
    return PolarFactors(U_k=U_k, U_p=U_p,
                        residuals={k: _out(r) for k, r in residuals.items()})


@dataclass(frozen=True)
class ParityRelationsReport:
    compact_residual: float
    noncompact_residual: float
    metric_residual: float

    @property
    def max_residual(self):
        """The largest of the three (NaN if any is NaN), per element."""
        return _out(np.maximum(np.maximum(self.compact_residual,
                                          self.noncompact_residual),
                               self.metric_residual))


def parity_relations_check(a: GaugeAlgebraElement, x) -> ParityRelationsReport:
    """Constant-matrix content of the reversed parity relations and eta = P.

    Checks Theta U_k(-x) Theta = U_k(x), Theta U_p(-x) Theta = U_p(x)^{-1}
    and U(x)^H Theta U(-x) = Theta with U = U_k U_p from the split parts.
    The last two residuals are relative to |U_p(x)|_max |U_p(-x)|_max
    (largest entry moduli, a product >= 1 since U_p(-x) = U_p(x)^{-1} is
    positive definite): their rounding error grows like e^{|c||x|}.
    x is a number or an array that broadcasts against a's leading axes.
    """
    sig = a.sig
    comp = cartan_split(a)
    x = np.asarray(x, dtype=float)
    x = np.broadcast_to(x, np.broadcast_shapes(x.shape, a.v.shape[:-2]))
    xx = np.stack([x, -x])   # one SVD and one stacked expm per block
    Uk_p, Uk_m = exp_compact(comp, sig, xx)
    Up_p, Up_m = exp_noncompact(comp, sig, xx)
    scale = max_abs(Up_p) * max_abs(Up_m)
    r_k = max_abs(sig.mask * Uk_m - Uk_p)
    r_p = max_abs(sig.mask * Up_m - np.linalg.inv(Up_p)) / scale
    U_pos = Uk_p @ Up_p
    U_neg = Uk_m @ Up_m
    # U^H Theta is U^H with its columns scaled by s
    r_eta = max_abs((U_pos.conj().mT * sig.signs) @ U_neg - sig.theta) / scale
    return ParityRelationsReport(compact_residual=_out(r_k),
                                 noncompact_residual=_out(r_p),
                                 metric_residual=_out(r_eta))
