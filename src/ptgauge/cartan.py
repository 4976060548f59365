"""Gauge algebra g_Theta, its Cartan split, LTS checks, group exponentials.

Theta is fixed to the signature matrix diag(I_p, -I_q); a general real
symmetric involution can be brought to this form by an orthogonal
congruence, which callers are expected to apply first.

Elements are block matrices

    a = [[ i u ,  v  ],      u, w real antisymmetric,  v real p x q,
         [-v^T , i w ]]

which satisfy a = -a^T and Theta a^H Theta = a, so that the Wick rotation
f = -i a lies in so(m,C) intersect su(p,q); membership_residual measures
both.  The split into the compact part b (real, off-diagonal blocks +-v)
and the noncompact part c = i diag(u, w) is the Cartan decomposition of
this set; the set closes under the double bracket [a1, [a2, a3]] but not
under the single bracket.  Both are multilinear, so structure_check decides
them exhaustively on the elements of unit draws, which span the set.

Exponentials of the two parts:
  exp(b x): closed-form block cosine/sine form through the SVD of v, with
            the sin(s x)/s spectral function switching to its series limit
            x below a 1e-8 singular-value threshold.
  exp(c x): diag(e^{iux}, e^{iwx}), Hermitian positive, as one expm of the
            block-diagonal c x: scipy's Pade keeps every off-block entry
            exactly zero, so no block is exponentiated on its own.
At q = 0 (b = 0) both take these routes: the SVD of the p x 0 block v
gives W = I, so exp(b x) is the identity bit for bit, and exp(c x) is the
expm of the p x p block.

Stacks.  An element is its matrix: a (m, m) matrix is one element, a
(..., m, m) stack of them, say (k, m, m), is k elements, indexed like an
array (stack[i] is the i-th element).  Stacks come from a (..., n_draws)
array of draws (elements_from_draws); drawn by one standard_normal call,
each element equals random_element's on the same generator, bit for bit.
make_element checks and builds one element from its blocks.  Every
kernel works on the trailing (m, m) axes, so lts_check,
membership_residual, exp_compact, exp_noncompact, parity_relations_check
and group_polar give an array of per-element residuals where one element
gives a float.  x may be an array that
broadcasts against the leading axes; parity_relations_check stacks x
and -x, so it takes one SVD and one stacked expm.
Each slice of a stacked result equals the per-element call bit for bit:
numpy's stacked matmul, svd and inv and scipy's stacked expm run the same
kernel on every slice, and the entry-wise steps do not depend on the
stack.

Per-call cost.  The checks run these kernels on thousands of 3x3 to 5x5
matrices, as stacks and one at a time; the per-element cost is Python
overhead, so nothing fixed per object is recomputed per call.  A
ThetaSignature holds s, Theta = diag(s), the sign mask s s^T (Theta X Theta
is mask * X, equal to the two products bit for bit for finite X) and the
draw slots and scale, all read-only and built once.  A sampled element is
its matrix: its draws are scattered into their slots, the result is
antisymmetrized and scaled, and it is only checked finite; every array is
O(m^2) per element.  The blocks u, v, w are not stored: a kernel slices
them from the matrix.  Both constructors return read-only matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import expm, max_abs

# bytes of one stacked array in a batched Cartan check, so that peak memory
# does not grow with the batch count; a large m gets batches of one element
BATCH_BYTES = 2**18


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
    def draw_slots(self) -> np.ndarray:
        """The flat (m, m) position of each draw: the u block, then w, then
        v, each row-major (read-only)."""
        p, m = self.p, self.m
        slots = np.arange(m * m).reshape(m, m)
        return _read_only(np.concatenate([slots[:p, :p].ravel(),
                                          slots[p:, p:].ravel(),
                                          slots[:p, p:].ravel()]))

    @cached_property
    def draw_scale(self) -> np.ndarray:
        """i/2 on the u and w blocks, 1 on the v blocks (read-only)."""
        return _read_only(np.where(self.mask < 0, 1.0, 0.5j))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _out(r):
    """A float for one element, the array of per-element values for a stack."""
    return float(r) if r.ndim == 0 else r


def _real_block(M, name: str, shape: tuple) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != shape:
        raise ValueError(f"{name} must be {shape[0]}x{shape[1]} real")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} must be finite")
    return M


@dataclass(frozen=True)
class GaugeAlgebraElement:
    """An element of g_Theta as its (m, m) matrix, or a stack of elements
    as a (..., m, m) matrix."""

    sig: ThetaSignature
    matrix: np.ndarray

    def __getitem__(self, index) -> "GaugeAlgebraElement":
        """The element or sub-stack at index of the leading axes."""
        return GaugeAlgebraElement(self.sig, self.matrix[index])

    @property
    def gauge_potential(self) -> np.ndarray:
        """A = i a, the constant non-Abelian gauge potential."""
        return 1j * self.matrix


@dataclass(frozen=True)
class CartanComponents:
    b: np.ndarray   # compact part: real, off-diagonal blocks
    c: np.ndarray   # noncompact part: i * diag(u, w), Hermitian


def make_element(sig: ThetaSignature, u, v, w) -> GaugeAlgebraElement:
    """The checked constructor of one element: u (p, p), v (p, q) and
    w (q, q) finite and real, u and w antisymmetric to 1e-13 of their scale.

    Raises ValueError otherwise.  Both defining residuals of the assembled
    matrix a, |a + a^T| and |Theta a^H Theta - a|, equal
    max(|u + u^T|, |w + w^T|), and the scale max(1, |a|) is at least that
    of u and of w, so these checks imply a in g_Theta to 1e-13 of its scale.
    """
    p, q = sig.p, sig.q
    u = _real_block(u, "u", (p, p))
    w = _real_block(w, "w", (q, q))
    v = _real_block(v, "v", (p, q))
    for M, name in ((u, "u"), (w, "w")):
        if max_abs(M + M.T) > 1e-13 * max(1.0, max_abs(M)):
            raise ValueError(f"{name} must be antisymmetric")
    a = np.zeros((sig.m, sig.m), dtype=complex)
    a[:p, :p] = 1j * u
    a[:p, p:] = v
    a[p:, :p] = -v.T
    a[p:, p:] = 1j * w
    return GaugeAlgebraElement(sig, _read_only(a))


def elements_from_draws(sig: ThetaSignature, z) -> GaugeAlgebraElement:
    """The element(s) random_element makes from its normal draws z, of shape
    (..., sig.n_draws): u, then w, then v, row-major; u and w are
    antisymmetrized as (M - M^T) / 2.  The draws are scattered into a zero
    matrix d at draw_slots, and the matrix is (d - d^T) * draw_scale: its
    entries are round(z_ij - z_ji) i/2 on the u and w blocks, z_ij on the
    upper and -z_ji on the lower v block.  It is antisymmetric by
    construction, so ValueError is raised only if z or a z_ij - z_ji is not
    finite; each draw has its own slot, so checking d - d^T covers both."""
    z = np.asarray(z, dtype=float)
    lead, m = z.shape[:-1], sig.m
    d = np.zeros(lead + (m * m,))
    d[..., sig.draw_slots] = z
    d = d.reshape(lead + (m, m))
    d = d - d.mT
    if not np.isfinite(d).all():
        raise ValueError("draws and their differences must be finite")
    return GaugeAlgebraElement(sig, _read_only(d * sig.draw_scale))


def random_element(sig: ThetaSignature, rng: np.random.Generator,
                   scale: float = 1.0) -> GaugeAlgebraElement:
    return elements_from_draws(sig, rng.standard_normal(sig.n_draws) * scale)


def membership_residual(X, sig: ThetaSignature):
    """Distance of X from g_Theta: max of the two defining residuals.  It is
    bit for bit that of f = -i X from so(m,C) intersect su(p,q), as -i only
    swaps real and imaginary parts and negates one (NaN included)."""
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
class StructureReport:
    closure_residual: float   # the worst; every triple's scale is 1
    min_escape_ratio: float   # over the nonzero brackets; inf for none
    escaping_pairs: int       # ordered pairs whose bracket escapes
    dims: tuple               # ranks of the compact and noncompact parts


def structure_check(sig: ThetaSignature) -> StructureReport:
    """lts_check on every triple of the elements of unit draws, which span
    g_Theta, batched over a1 to about BATCH_BYTES a stack.  A bracket's
    escape ratio is its membership residual over its largest entry."""
    u, d = elements_from_draws(sig, np.eye(sig.n_draws)), sig.n_draws
    per = max(1, BATCH_BYTES // (16 * d * d * sig.m**2))
    out = [lts_check(u[i:i + per, None, None], u[None, :, None],
                     u[None, None, :]) for i in range(0, d, per)]
    escape = np.concatenate([o.binary_escape[..., 0] for o in out])
    size = max_abs(u.matrix[:, None] @ u.matrix - u.matrix @ u.matrix[:, None])
    parts = cartan_split(u)
    return StructureReport(
        float(np.max([np.max(o.closure_residual) for o in out])),
        float(np.min(escape[size > 0] / size[size > 0], initial=np.inf)),
        int(np.count_nonzero(escape > 0)),
        tuple(int(np.linalg.matrix_rank(M.reshape(d, -1)))
              for M in (parts.b, parts.c)))


_SING_TOL = 1e-8  # below this the sin(s x)/s spectral function uses its limit x


def exp_compact(comp: CartanComponents, sig: ThetaSignature, x) -> np.ndarray:
    """Closed-form exp(b x) for b in the compact (off-diagonal) part; x is a
    number or an array that broadcasts against the leading axes of b."""
    p, q, m = sig.p, sig.q, sig.m
    v = comp.b[..., :p, p:].real
    x = np.asarray(x, dtype=float)
    lead = np.broadcast_shapes(v.shape[:-2], x.shape)
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
    """exp(c x) = diag(e^{iux}, e^{iwx}), Hermitian positive, as one expm of
    the block-diagonal c x; x is a number or an array that broadcasts against
    the leading axes of c.  sig is not read."""
    return expm(comp.c * np.asarray(x, dtype=float)[..., None, None])


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
    The first is 0 by construction: exp_compact is even in x on its diagonal
    blocks and odd off them bit for bit (IEEE cos is even, sin odd), and
    Theta negates only the off-diagonal blocks.  The last two are relative
    to |U_p(x)|_max |U_p(-x)|_max (largest entry moduli, a product >= 1 as
    U_p(-x) = U_p(x)^{-1} is positive definite): their rounding error grows
    like e^{|c||x|}.
    x is a number or an array that broadcasts against a's leading axes; the
    factors at x and -x come from one SVD and one expm of the stack.
    """
    sig = a.sig
    comp = cartan_split(a)
    x = np.asarray(x, dtype=float)
    x = np.broadcast_to(x, np.broadcast_shapes(x.shape, a.matrix.shape[:-2]))
    xx = np.stack([x, -x])   # one SVD and one stacked expm
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
