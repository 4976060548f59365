"""Eigensolver and exponential wrappers and sparse 1D staggered-grid operators.

Conventions used throughout the package
---------------------------------------
Grid: 2N nodes x_j = (j + 1/2) h for j = -N .. N-1.  The grid is symmetric
under x -> -x and never contains x = 0, so sign(x_j) is well defined at
every node and the parity operator is an exact index-reversal permutation.

Difference stencils (Dirichlet closure, values outside the box are zero):
  momentum          p f_j = -i (f_{j+1} - f_{j-1}) / (2h)
  second_derivative (-d^2/dx^2) f_j = (2 f_j - f_{j+1} - f_{j-1}) / h^2

Grid operators are complex scipy.sparse CSR arrays: momentum and
second_derivative are tridiagonal, parity is anti-diagonal, and sign is
diagonal.  Block operators on grid (x) C^m have the grid index slowest (node
j occupies rows j*m .. j*m+m-1); block_tridiagonal assembles one from its
m x m blocks.  sample_on_nodes calls f(x) once, on the node array.  eig
accepts dense or sparse input; expm takes a dense matrix or a (..., m, m)
stack of them, on a complex copy.  eig reads the input's
stored entries once, picks its LAPACK driver by their exact structure and
solves them: a Hermitian matrix of bandwidth kd < n/32 goes to the band
driver and is never made dense.
Given a parity J, a signed permutation such as the extended parity
kron(P, Theta), eig solves such a band matrix that commutes with J entry
for entry as its J-even and J-odd halves, each of half the dimension:
each half is one summed CSR array of M's entries, read as any operand.

Where only the lowest modes are read, lowest_modes takes them from a
sparse operator by certified shift-invert Krylov iteration, without
densifying, and from eig's route where no request certifies them and
that route keeps the operator sparse or it is small: it answers every
cut of a Hermitian band operator.  It has two Krylov routes, chosen by
the same structure test:
both solvers read an operator once, by one reader that refuses a
non-square or non-finite one, and every route takes its operand from it.
A Hermitian operator narrow enough for eig's band driver takes
shift-invert Lanczos.  A shift sigma just below its Gershgorin bound
makes M - sigma I positive definite, so one banded Cholesky factor
serves every solve, and the values nearest sigma are the lowest.  The
returned values are then counted: by Sylvester's law of inertia, the
unpivoted factorization M - cI = L D L^H has as many negative pivots
as M has eigenvalues below c.  So when c sits in a gap past the kept
values and the count equals the number of returned values below c, no
eigenvalue below c was missed, not even a degenerate copy.  Any other
operator takes shift-invert Arnoldi, whose kept set is certified by a
Bendixson rectangle inside the disk the request covers.  hermitian_band
names the Lanczos route's operators: eig's Hermitian drivers return their
values exactly real, so their pairing class is all_real with no solve.
Dense eig remains for whole spectra (the pairing classes of other
operators, spectral similarity), for small operators, for their cuts no
Krylov request certifies and as the oracle of lowest_modes.
Every lowest-k cut goes through lowest, which never splits a conjugate
pair, and lowest_common cuts spectra that are compared at one such k.

eig returns eigenvalues sorted by (real part, imaginary part) so that
repeated runs and CSV exports are reproducible.  operator_norm_estimate
is Hölder's upper bound sqrt(|M|_1 |M|_inf) on |M|_2, tight for the
diagonally dominant banded operators here and up to sqrt(n) loose for a
dense matrix; indefinite_inner takes vectors or (n, k) column blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse


@dataclass(frozen=True)
class Grid1D:
    """Symmetric staggered grid with 2*half_count nodes, spacing h."""

    half_count: int
    spacing: float

    def __post_init__(self):
        if self.half_count < 1:
            raise ValueError("half_count must be positive")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")

    @property
    def size(self) -> int:
        return 2 * self.half_count

    @property
    def nodes(self) -> np.ndarray:
        j = np.arange(-self.half_count, self.half_count)
        return (j + 0.5) * self.spacing

    @classmethod
    def from_box(cls, half_width: float, spacing: float) -> "Grid1D":
        """Grid covering roughly [-half_width, half_width].

        Raises ValueError, naming the argument, unless spacing is positive
        and finite and half_width / spacing is finite and above 1/2 (so the
        grid has a node).
        """
        if not 0 < spacing < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {spacing}")
        if not math.isfinite(half_width):
            raise ValueError(f"half_width must be finite, got {half_width}")
        ratio = half_width / spacing
        if not math.isfinite(ratio):
            raise ValueError(f"half_width / spacing overflows, got "
                             f"half_width {half_width}, spacing {spacing}")
        if not ratio > 0.5:
            raise ValueError(f"half_width must exceed spacing / 2, got "
                             f"half_width {half_width}, spacing {spacing}")
        return cls(half_count=int(round(ratio)), spacing=spacing)


def _real(v):
    """v, or its real part when every entry has zero imaginary part."""
    return v.real if np.iscomplexobj(v) and not v.imag.any() else v


def _table(n: int, i, j, v):
    """(kd, T) of the entries M[i, j] = v of an n x n matrix, each position
    once: the bandwidth kd, the largest |i - j|, and, where 32 kd < n, the
    table T[i - j + kd, j] = v with one slot for each position of the band
    (0 where nothing is stored), else None.  T[:kd + 1] is M's upper band
    storage (LAPACK's layout: row kd - k holds the diagonal M.diagonal(k),
    padded by k zeros in front)."""
    kd = int(np.abs(j - i).max(initial=0))
    if not 32 * kd < n:
        return kd, None
    T = np.zeros((2 * kd + 1, n), v.dtype)
    T[i - j + kd, j] = v
    return kd, T


def _entries(M):
    """(n, i, j, v, kd, T): the nonzero entries M[i, j] = v of a square
    scipy.sparse array or ndarray M as CSR, each position once, v float64
    when every entry has zero imaginary part, else complex128, and their
    _table; the one read of eig, its parity and lowest_modes, and the
    operand of every route.  A canonical CSR array is read as stored, any
    other input summed once, in a sorted copy.  ValueError, naming the
    shape, unless M is 2-D and square; ValueError unless it is finite."""
    shape = np.shape(M)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    n = shape[0]
    C = scipy.sparse.csr_array(M)   # a CSR input's own arrays, only read
    if not C.has_canonical_format:
        C = C.copy()
        C.sum_duplicates()
    i = np.repeat(np.arange(n), np.diff(C.indptr))
    nonzero = C.data != 0
    i, j = i[nonzero], C.indices[nonzero]
    v = _real(C.data[nonzero].astype(np.result_type(C.dtype, float),
                                     copy=False))
    if not np.isfinite(v).all():
        raise ValueError("matrix contains NaN/Inf entries")
    return (n, i, j, v) + _table(n, i, j, v)


def _band(n: int, i, j, v, kd: int, T):
    """The upper band storage T[:kd + 1] of the entries read by _entries
    when 32 kd < n and M equals its conjugate transpose entry for entry
    (each entry's transposed slot holds its conjugate), else None: with
    v.dtype, float64 for real entries, it picks eig's and lowest_modes'
    routes."""
    if 32 * kd < n and np.array_equal(T[j - i + kd, i], v.conj()):
        return T[:kd + 1]
    return None


def hermitian_band(M) -> bool:
    """Whether eig and lowest_modes take their Hermitian band routes on M."""
    return _band(*_entries(M)) is not None


def _involution(J, n: int):
    """(pi, s) of an n x n signed permutation J with J^2 = I and no fixed
    point: J[k, pi(k)] = s_k = +-1 is the one entry of row k, pi(pi(k)) = k
    != pi(k) and s_pi(k) = s_k.  Raises ValueError for any other J."""
    m, rows, pi, s = _entries(J)[:4]
    if m != n:
        raise ValueError(f"parity must have shape {(n, n)}, got {(m, m)}")
    if not (np.array_equal(rows, np.arange(n))
            and np.all((s == 1) | (s == -1))):
        raise ValueError("parity must be a signed permutation: one entry +-1 "
                         "in each row")
    s = np.real(s).astype(float)
    if not (np.array_equal(pi[pi], rows) and np.array_equal(s[pi], s)):
        raise ValueError("parity must square to the identity")
    if np.any(pi == rows):
        raise ValueError("parity must have no fixed point")
    return pi, s


def _fold(pi, s, n: int, i, j, v, kd: int, T):
    """The entries, as _entries gives them, of the J-even and J-odd halves
    of M for J = (pi, s) of _involution, or None unless M has a table and
    J M J == M entry for entry.

    J M J has the entry s_i s_j v at (pi(i), pi(j)) for each entry v at
    (i, j), so it equals M when each of those slots of M's table holds it.
    Let R be the indices k < pi(k), one of each pair, and pos(k) the place
    of k or pi(k) in R.  In the orthonormal basis
    (e_k +- s_k e_pi(k)) / sqrt 2, k in R, such an M is the direct sum of
    M_+- = M[R, R] +- M[R, pi(R)] diag(s_R): each stored entry v of a row
    k in R lands at (pos(k), pos(j)), as v where its column j is in R,
    else as +-s_j v, and the entries that land on one slot are summed.
    At most two do, where both columns of a pair meet a row (on the
    staggered grid, next to the centre), at one rounding each.  When M is
    Hermitian so is each half, exactly; on the staggered grid, where R is
    the first half of the indices, no half is wider than M.
    """
    r, c = pi[i], pi[j]
    if not (T is not None and np.abs(r - c).max(initial=0) <= kd
            and np.array_equal(T[r - c + kd, c], s[i] * s[j] * v)):
        return None
    rep = np.arange(n) < pi
    rank = np.cumsum(rep) - 1
    half, pos = n // 2, np.where(rep, rank, rank[pi])
    top = rep[i]
    i, j, v = i[top], j[top], v[top]
    return [_entries(scipy.sparse.csr_array(
        (np.where(rep[j], v, sign * s[j] * v), (pos[i], pos[j])),
        shape=(half, half))) for sign in (1, -1)]


def _spectrum(n: int, i, j, v, kd: int, T) -> np.ndarray:
    """eig's route (see there) for the entries of an n x n matrix as
    _entries gives them."""
    band = _band(n, i, j, v, kd, T)
    if band is not None:
        return scipy.linalg.eigvals_banded(band).astype(complex)
    A = np.zeros((n, n), v.dtype)
    A[i, j] = v
    if np.array_equal(A, A.conj().T):   # ascending real values, in eig's order
        return scipy.linalg.eigvalsh(A, check_finite=False).astype(complex)
    vals = np.linalg.eigvals(A).astype(complex, copy=False)
    return vals[np.lexsort((vals.imag, vals.real))]


def eig(M, parity=None) -> np.ndarray:
    """All eigenvalues as a complex array, sorted by (real part, imaginary
    part), from the cheapest LAPACK driver the input's exact structure
    allows.

    A matrix equal to its conjugate transpose entry for entry has real
    eigenvalues (imaginary parts returned exactly 0).  If its bandwidth kd,
    the largest |i - j| of a nonzero entry, is below n/32, where the band
    driver is the faster one, its diagonals M.diagonal(k), k = 0..kd, go to
    scipy.linalg.eigvals_banded (dsbevd, or zhbevd when complex), so dense
    and sparse storage give the same bits; a wider one goes to
    scipy.linalg.eigvalsh (dsyevr, or zheevr).  Any other matrix whose
    entries have zero imaginary part goes to real geev (dgeev), which
    returns nonreal eigenvalues as exact conjugate pairs; the rest to
    complex geev (zgeev).  Every route solves the entries of one read of
    the input; for the dense drivers they are scattered into a matrix,
    float64 when real, on which a wider matrix is tested for Hermiticity.

    parity, a signed permutation J with J^2 = I and no fixed point (such as
    the extended parity kron(P, Theta) of a staggered grid), lets eig
    split M: if kd < n/32 and J M J == M entry for entry, the spectrum is
    the sorted union of those of M's J-even and J-odd halves (see _fold),
    each of half the dimension and solved by the route above.  At a fixed
    bandwidth the band driver's cost grows like n^2, the dense drivers'
    like n^3, so the two halves cost about a half, or a quarter, of the
    whole.  Any other M takes the route above, as without parity.

    Raises ValueError on an input that is not a square matrix (naming its
    shape) or not finite, or a parity that is not such a J, and LinAlgError
    on QR-iteration non-convergence; the message then carries the partial
    diagnostics LAPACK provides.
    """
    read = _entries(M)
    halves = None if parity is None else _fold(
        *_involution(parity, read[0]), *read)
    if halves is None:
        return _spectrum(*read)
    vals = np.concatenate([_spectrum(*h) for h in halves])
    return vals[np.lexsort((vals.imag, vals.real))]


def expm(M) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade) of a dense matrix, or
    of each matrix of a (..., m, m) stack, on a complex copy.

    scipy.linalg.expm works slice by slice, so each slice of a stacked
    result equals the exponential of that matrix alone bit for bit.
    Raises ValueError on non-square or non-finite input, and OverflowError
    if any entry of the result overflows.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains NaN/Inf entries")
    E = scipy.linalg.expm(M)
    if not np.isfinite(E).all():
        raise OverflowError("matrix exponential overflowed (extreme norm input)")
    return E


def antidiagonal(values) -> scipy.sparse.csr_array:
    """The n x n operator with M[j, n-1-j] = values[j] and no other entry."""
    values = np.asarray(values, dtype=complex)
    n = len(values)
    return scipy.sparse.csr_array((values, np.arange(n)[::-1], np.arange(n + 1)),
                                  shape=(n, n))


def stencil(grid: Grid1D, kind: str) -> tuple:
    """(lower, diagonal, upper) coefficients of the tridiagonal 'momentum'
    or 'second_derivative' stencil on grid, as complex numbers."""
    h = grid.spacing
    if kind == "momentum":
        return 1j / (2 * h), 0j, -1j / (2 * h)
    if kind == "second_derivative":
        return complex(-1.0 / h**2), complex(2.0 / h**2), complex(-1.0 / h**2)
    raise ValueError(f"unknown operator kind {kind!r}")


def block_tridiagonal(lower, diag, upper) -> scipy.sparse.csr_array:
    """The CSR array with the m x m blocks diag[j] at block (j, j), lower[j]
    at (j + 1, j) and upper[j] at (j, j + 1), where diag has shape (n, m, m)
    and lower, upper broadcast to (n - 1, m, m); exact zeros are not stored."""
    n, m, _ = np.shape(diag)
    pad = np.zeros((1, m, m), dtype=complex)
    lower, upper = (np.broadcast_to(b, (n - 1, m, m)) for b in (lower, upper))
    # block row j: column blocks j - 1, j, j + 1 side by side, in column order
    rows = np.concatenate((np.concatenate((pad, lower)), diag,
                           np.concatenate((upper, pad))), axis=2)
    cols = np.arange(-m, (n - 1) * m, m)[:, None, None] + np.arange(3 * m)
    keep = rows != 0   # the pads, outside the box, are zeros
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=2))))
    return scipy.sparse.csr_array((rows[keep], np.broadcast_to(
        cols, rows.shape)[keep], indptr), shape=(n * m, n * m))


def grid_operator(grid: Grid1D, kind: str) -> scipy.sparse.csr_array:
    """Assemble a discrete operator on grid as a CSR array.

    kind is one of 'momentum', 'parity', 'sign', 'second_derivative'.
    """
    if kind == "parity":
        return antidiagonal(np.ones(grid.size))
    if kind == "sign":
        return block_tridiagonal(0, np.sign(grid.nodes)[:, None, None], 0)
    lower, diag, upper = stencil(grid, kind)
    return block_tridiagonal(lower, np.full((grid.size, 1, 1), diag), upper)


def sample_on_nodes(f, x, block: tuple = ()) -> np.ndarray:
    """f called once, elementwise, on the node array x shaped (n, 1, ..., 1),
    its value broadcast to (n,) + block as a new complex array (a constant
    may be a scalar); ValueError naming that shape if it does not broadcast."""
    shape = (len(x),) + tuple(block)
    value = f(np.reshape(x, (-1,) + (1,) * len(block)))
    try:
        out = np.broadcast_to(value, shape)
    except ValueError:
        raise ValueError(f"a potential on the nodes gave shape "
                         f"{np.shape(value)}, expected shape {shape}") from None
    return out.astype(complex)


def indefinite_inner(f, g, J, weight, h: float):
    """Quadrature of the indefinite form [f, g] = (f, W J g).

    Returns h * sum_j w_j (J g)_j conj(f_j), where weight holds the node
    values w_j of the diagonal operator W; they must be real and positive.
    h is the grid spacing.  For vectors f, g the result is a complex; for
    (n, k) blocks it is the k forms of their columns, as an array.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    w = np.asarray(weight)
    if not (np.isrealobj(w) and np.all(w > 0)):
        raise ValueError("weight entries must be real positive")
    if not (f.shape == g.shape and f.ndim <= 2
            and f.shape[:1] == w.shape == J.shape[:1]):
        raise ValueError("dimension mismatch between vectors and operators")
    column = w[:, None] if f.ndim == 2 else w
    form = h * np.sum(column * (J @ g) * np.conj(f), axis=0)
    return complex(form) if f.ndim == 1 else form


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| entry by entry, bit for bit as abs() of each complex scalar gives
    it (np.abs of a complex array may differ from that in the last bit)."""
    return np.hypot(z.real, z.imag)


def _nearest_free(d: np.ndarray, free: np.ndarray) -> int:
    """Index of the smallest d[j] with free[j] set, as np.argmin over the
    free entries alone picks it: the first of a tie, the first NaN if any.
    Overwrites the entries of d that are not free."""
    d[~free] = np.inf
    k = int(np.argmin(d))
    return k if free[k] else int(np.argmax(free))   # every free d[j] is inf


def pairing_check(eigenvalues, tol: float) -> str:
    """Classify a spectrum: 'all_real', 'conjugate_paired' (every non-real
    value pairs with a conjugate partner within tol) or 'unpaired'.

    Non-real values are taken in order; each pairs with the nearest
    conj(mu) among the values not yet paired (the first of a tie).  A NaN
    in a non-real value (a NaN imaginary part never counts as real) makes
    the spectrum 'unpaired'.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    vals = np.asarray(eigenvalues, dtype=complex)
    rest = vals[~(np.abs(vals.imag) <= tol)]   # a NaN is never real
    if not len(rest):
        return "all_real"
    free = np.ones(len(rest), dtype=bool)
    for i in range(len(rest)):
        if not free[i]:
            continue
        free[i] = False
        if not free.any():
            return "unpaired"
        d = _modulus(rest[i] - np.conj(rest))
        j = _nearest_free(d, free)
        if not d[j] <= tol:
            return "unpaired"
        free[j] = False
    return "conjugate_paired"


def match_spectra(a, b) -> np.ndarray:
    """Greedy nearest-neighbor matching distance between two spectra.

    Both sets are sorted by (real, imag); each element of a is matched to
    the closest not-yet-used element of b (the first of a tie).  One
    masked argmin per element, so O(n^2) array work and O(n) Python steps.
    """
    a = np.sort_complex(np.asarray(a, dtype=complex))
    b = np.sort_complex(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        raise ValueError("spectra must have equal length")
    free = np.ones(len(b), dtype=bool)
    dists = np.empty(len(a))
    for i, lam in enumerate(a):
        d = _modulus(lam - b)
        k = _nearest_free(d, free)
        dists[i] = d[k]
        free[k] = False
    return dists


REAL_TOL = 1e-9   # |Im lambda| <= REAL_TOL (1 + |lambda|) counts as real


def _require_cut(k) -> None:
    if not k >= 1:
        raise ValueError(f"k must be at least 1, got {k}")


def lowest(e, k: int) -> np.ndarray:
    """The k lowest values; the cut is extended so it splits no conjugate pair.

    Values are ordered by (real part, |imag|), where |Im lambda| <=
    REAL_TOL (1 + |lambda|) counts as real.  The partner of a kept nonreal
    lambda not yet paired is the unpaired value nearest conj(lambda), if it
    lies within |Im lambda| of it (so across the real axis); when that
    partner is outside the cut, the cut moves past it.
    """
    _require_cut(k)
    e = np.asarray(e, dtype=complex)
    nonreal = np.abs(e.imag) > REAL_TOL * (1 + np.abs(e))
    order = np.lexsort((e.imag, np.where(nonreal, np.abs(e.imag), 0.0), e.real))
    e, nonreal = e[order], nonreal[order]
    paired = np.zeros(len(e), dtype=bool)
    cut = min(k, len(e))
    i = 0
    while i < cut:
        if nonreal[i] and not paired[i]:
            d = np.abs(e - np.conj(e[i]))
            free = ~paired
            free[i] = False
            j = _nearest_free(d, free)
            if d[j] < abs(e[i].imag):
                paired[[i, j]] = True
                cut = max(cut, j + 1)
        i += 1
    return e[:cut]


def lowest_common(k: int, *spectra) -> list:
    """Cut several spectra at the smallest common k' >= k that splits no
    conjugate pair in any of them (see lowest).

    Each spectrum is an array of values or a callable mapping a cut to its
    pair-safe lowest values, such as lambda j: lowest_modes(M, j).  Raises
    ValueError if a spectrum has fewer values than the cut asks for.
    """
    _require_cut(k)

    def low(s, j):
        return s(j) if callable(s) else lowest(s, j)

    while True:
        lows = [low(s, k) for s in spectra]
        lengths = {len(v) for v in lows}
        if min(lengths) < k:
            raise ValueError(f"a spectrum has fewer than {k} values")
        if len(lengths) == 1:
            return lows
        k = max(lengths)


MAX_ARNOLDI_MODES = 256   # largest set lowest_modes asks ARPACK for


def _below(x: float) -> float:
    """A shift just below x: x - 1e-3 (1 + |x|)."""
    return x - 1e-3 * (1 + abs(x))


def _gershgorin_floor(H) -> float:
    """min_i (H_ii - sum_{j != i} |H_ij|), a lower bound of the spectrum of
    the Hermitian sparse matrix H (Gershgorin)."""
    diag = H.diagonal().real
    return float(np.min(diag + abs(diag) - abs(H).sum(axis=1)))


def _count_below(M, c: float):
    """The number of eigenvalues of the Hermitian sparse matrix M below c,
    by Sylvester's law of inertia, or None where the factorization cannot
    give it.

    SuperLU factors M - cI in its natural order with diagonal pivots only
    (threshold 0), so M - cI = L U with U = D L^H, and M - cI is congruent
    to D = diag(U): the count of negative pivots is the count of
    eigenvalues below c.  An exactly zero pivot raises in splu; a row or
    column permutation would break the congruence, so either gives None.
    """
    import scipy.sparse.linalg   # 1.3 MB RSS, so only where it is used

    shifted = scipy.sparse.csc_array(M - c * scipy.sparse.eye_array(M.shape[0]))
    try:
        lu = scipy.sparse.linalg.splu(shifted, permc_spec="NATURAL",
                                      diag_pivot_thresh=0)
    except RuntimeError:   # "Factor is exactly singular"
        return None
    order = np.arange(M.shape[0])
    if not (np.array_equal(lu.perm_r, order) and np.array_equal(lu.perm_c, order)):
        return None
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def lowest_modes(M, k: int) -> np.ndarray:
    """The lowest eigenvalues of a sparse operator, as lowest(eig(M), k) would
    give them, by certified shift-invert Krylov iteration.

    Shift-invert returns the nev = k + margin values nearest its shift
    sigma, not the lowest by real part, so the selection is certified; the
    margin starts at 4 and doubles until it is, up to MAX_ARNOLDI_MODES
    values (or n - 2).  Where no request certifies a set, k >=
    MAX_ARNOLDI_MODES or the operator is too small for a first request of
    k + 4 values, lowest_modes makes no further request and returns
    lowest(eig(M), k) from eig's own route, which never makes a Hermitian
    band operator dense: it answers every k of one.  Any other operator
    past n = 2 MAX_ARNOLDI_MODES + 1, the vectors of the largest Arnoldi
    basis, would be made dense, so that cut raises RuntimeError.  M is read
    once, as eig reads it; its structure (_band) picks one of two Krylov
    routes, which solve on one sparse operand built from the entries read.

    Hermitian and narrow-banded (M equals M^H entry for entry, and
    32 kd < n): shift-invert Lanczos.  Let g be the Gershgorin lower bound
    of the spectrum and sigma just below it.  The band of M - sigma I is
    factored once, by Cholesky (LAPACK pbtrf); its success shows M - sigma I
    positive definite, so sigma lies below the spectrum and the values
    nearest sigma are the lowest.  Its band solves (pbtrs) are the
    operator of one eigsh request (dsaupd for real M).  The returned values
    v_0 <= ... <= v_{nev-1} are certified by a count: take the widest gap
    (v_{j-1}, v_j) with j >= k, so past the kept values, and its midpoint
    c.  By Sylvester's law of inertia, the number of negative pivots of
    the unpivoted factorization M - cI = L D L^H is the number of
    eigenvalues below c; if it equals j, the values v_0..v_{j-1} are all
    of them, degenerate copies included, and the lowest k are
    v_0..v_{k-1}.  The values are returned exactly real.  The count is
    exact for M - cI plus the rounding of its factorization, which c, half
    a gap from every returned value, keeps far from moving a pivot's sign.
    A count that differs, or an exactly singular factor, leaves the set
    uncertified.

    Any other M: shift-invert Arnoldi.  Re lambda >= mu, the lowest
    eigenvalue of the Hermitian part (M + M^H)/2 (one eigsh shift-invert
    from its Gershgorin lower bound), and |Im lambda| <= b, with
    b = operator_norm_estimate(S) >= |S|_2 for S = (M - M^H)/2 (Bendixson).
    eigs returns the nev values nearest sigma, just below mu; let R be the
    largest |lambda - sigma| among them and r_cut the largest real part
    kept.  Every eigenvalue with real part <= r_cut lies in
    [sigma, r_cut] x [-b, b], so if R^2 > (r_cut - sigma)^2 + b^2 all of
    them were returned and the kept set is the true lowest one.  This
    certificate cannot see a copy of an exactly degenerate eigenvalue that
    the Krylov space misses; verify-all checks lowest_modes against dense
    eig on the coarse matrix grid (matrix/lowest_modes_vs_dense_*).

    Raises ValueError unless k >= 1 and M is finite and square.
    """
    _require_cut(k)
    read = n, i, j, v, kd, T = _entries(M)
    if k + 4 <= n - 2:   # room for a first request
        band = _band(*read)
        if k < MAX_ARNOLDI_MODES:
            A = scipy.sparse.csc_array((v, (i, j)), shape=(n, n), dtype=(
                v.dtype if band is not None else complex))
            v0 = np.random.default_rng(0).standard_normal(n)   # reproducible
            certified = (_lanczos_request(A, band, k, v0) if band is not None
                         else _arnoldi_request(A, k, v0))
            margin, nev, nev_max = 4, 0, min(MAX_ARNOLDI_MODES, n - 2)
            while nev < nev_max:
                nev = min(k + margin, nev_max)
                kept = certified(nev)
                if kept is not None:
                    return kept
                margin *= 2
        if band is None and n > 2 * MAX_ARNOLDI_MODES + 1:
            raise RuntimeError(f"lowest_modes: no certified lowest {k} of {n}"
                               " modes, and eig would make M dense")
    return lowest(_spectrum(*read), k)


def _lanczos_request(M, band, k: int, v0):
    """The Hermitian route of lowest_modes (see there) for M, a Hermitian
    CSC array, real when its entries are, with band its upper band
    storage: a map from nev to the certified lowest k, or None."""
    import scipy.sparse.linalg

    n = M.shape[0]
    sigma = _below(_gershgorin_floor(M))
    pbtrf, pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), (band,))
    shifted = band.copy()
    shifted[-1] -= sigma   # the diagonal row
    chol, info = pbtrf(shifted, overwrite_ab=True)
    if info != 0:
        raise RuntimeError(
            f"lowest_modes: M - sigma I is not positive definite at sigma "
            f"{sigma:.6g}, below the Gershgorin bound (pbtrf info {info})")
    inverse = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda x: pbtrs(chol, x)[0], dtype=band.dtype)

    def certified(nev):
        vals = np.sort(scipy.sparse.linalg.eigsh(
            M, nev, sigma=sigma, OPinv=inverse, v0=v0,
            return_eigenvectors=False))
        j = k + int(np.argmax(np.diff(vals[k - 1:])))   # the widest gap
        if _count_below(M, (vals[j - 1] + vals[j]) / 2) == j:
            return vals[:k].astype(complex)
        return None

    return certified


def _arnoldi_request(M, k: int, v0):
    """The general route of lowest_modes (see there) for M, a complex CSC
    array: a map from nev to the certified lowest k, or None."""
    import scipy.sparse.linalg

    MH = M.conj().T
    herm = (M + MH) / 2
    b = operator_norm_estimate((M - MH) / 2)
    mu = scipy.sparse.linalg.eigsh(
        herm, 1, sigma=_below(_gershgorin_floor(herm)), v0=v0,
        return_eigenvectors=False)[0]
    sigma = _below(mu)

    def certified(nev):
        vals = scipy.sparse.linalg.eigs(M, nev, sigma=sigma, v0=v0,
                                        return_eigenvectors=False)
        kept = lowest(vals, k)
        R = np.abs(vals - sigma).max()
        return kept if R**2 > (kept.real.max() - sigma)**2 + b**2 else None

    return certified


def worst_residual(residuals) -> float:
    """Largest residual, 0.0 for none, NaN if any is NaN (unlike max(),
    which drops a NaN that is not its first argument)."""
    return float(np.fromiter(residuals, dtype=float).max(initial=0.0))


def max_abs(X) -> np.ndarray:
    """Largest entry modulus of each trailing matrix of X (0.0 for an empty
    one, NaN for one holding a NaN): a numpy scalar for one matrix, an
    array for a stack."""
    return np.abs(X).max(axis=(-2, -1), initial=0.0)


def smallest(values) -> float:
    """Smallest value, inf for none, NaN if any is NaN (unlike min(),
    which drops a NaN that is not its first argument)."""
    return float(np.fromiter(values, dtype=float).min(initial=np.inf))


def operator_norm_estimate(M) -> float:
    """Hölder's upper bound sqrt(|M|_1) sqrt(|M|_inf) >= |M|_2 of a dense
    or scipy.sparse matrix, from one read of |M|: tight for the diagonally
    dominant banded operators built here, up to sqrt(n) loose for a dense
    matrix.  The roots are taken apart, so diag(1e200, 1) gives 1e200.  A
    NaN or infinite entry gives NaN, a zero matrix 0.0; raises
    OverflowError if an absolute row or column sum of a finite M overflows.
    """
    A = abs(M)
    with np.errstate(over="ignore"):   # an overflow raises below
        sums = [np.asarray(A.sum(axis=a)).max(initial=0.0) for a in (0, 1)]
    bound = math.sqrt(sums[0]) * math.sqrt(sums[1])
    if bound == math.inf and np.isfinite(
            A.data if scipy.sparse.issparse(A) else A).all():
        raise OverflowError("an absolute row or column sum of M overflows")
    return bound if bound < math.inf else math.nan
