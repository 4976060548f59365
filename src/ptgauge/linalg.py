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
second_derivative are tridiagonal, parity is anti-diagonal, and sign,
position and multiply are diagonal.  Block operators are Kronecker
products  grid_part (x) I_m  with the grid index slowest, i.e. node j
occupies rows j*m .. j*m+m-1.  eig and expm accept dense or sparse input
and work on a dense copy; densify is the one place a sparse operator is
made dense.  expm's copy is complex, and expm also takes a (..., m, m)
stack of dense matrices.  eig reads the input's exact
structure first and densifies into float64 when every entry is real: a
matrix equal to its conjugate transpose goes to scipy.linalg.eigvalsh
(dsyevr, or zheevr when complex), any other real matrix to real geev
(dgeev), the rest to complex geev (zgeev).

Where only the lowest modes are read, lowest_modes takes them from a
sparse operator by certified shift-invert Arnoldi, without densifying.
Dense eig remains for whole spectra (pairing classes, spectral
similarity), for small operators and as the oracle of lowest_modes.
Every lowest-k cut goes through lowest, which never splits a conjugate
pair, and lowest_common cuts spectra that are compared at one such k.

eig returns eigenvalues sorted by (real part, imaginary part) so that
repeated runs and CSV exports are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse


def densify(M, dtype=complex) -> np.ndarray:
    """Dense copy of an array or a scipy.sparse matrix in dtype (no copy for
    an ndarray already of that dtype)."""
    return np.asarray(M.toarray() if scipy.sparse.issparse(M) else M,
                      dtype=dtype)


def _check_square(M):
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")


def _as_square_matrix(M, dtype=complex) -> np.ndarray:
    M = densify(M, dtype)
    _check_square(M)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains NaN/Inf entries")
    return M


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


def eig(M) -> np.ndarray:
    """All eigenvalues as a complex array, sorted by (real part, imaginary
    part), from the cheapest LAPACK driver the input's exact structure
    allows.

    A matrix equal to its conjugate transpose entry for entry goes to
    scipy.linalg.eigvalsh (dsyevr on real symmetric, zheevr on complex
    Hermitian input; the imaginary parts returned are exactly 0).  Any
    other matrix whose entries have zero imaginary part goes to real
    geev (dgeev), which returns nonreal eigenvalues as exact conjugate
    pairs; the rest to complex geev (zgeev).  The structure is read from
    the input (for sparse input from its stored entries), which is then
    densified once, into float64 when it is real.

    Raises ValueError on a non-square or non-finite matrix, and LinAlgError
    on QR-iteration non-convergence; the message then carries the partial
    diagnostics LAPACK provides.
    """
    sparse = scipy.sparse.issparse(M)
    M = scipy.sparse.csr_array(M) if sparse else np.asarray(M)
    _check_square(M)
    entries = M.data if sparse else M
    real = not np.iscomplexobj(entries) or not entries.imag.any()
    MH = M.conj().T
    hermitian = ((M != MH).count_nonzero() == 0 if sparse
                 else np.array_equal(M, MH))
    A = _as_square_matrix(M.real if real else M, float if real else complex)
    if hermitian:   # ascending real values, already in eig's order
        return scipy.linalg.eigvalsh(A, check_finite=False).astype(complex)
    vals = np.linalg.eigvals(A).astype(complex, copy=False)
    return vals[np.lexsort((vals.imag, vals.real))]


def expm(M) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade) of a matrix, or of each
    matrix of a (..., m, m) stack.

    scipy.linalg.expm works slice by slice, so each slice of a stacked
    result equals the exponential of that matrix alone bit for bit.
    Raises ValueError on non-square or non-finite input, and OverflowError
    if any entry of the result overflows.
    """
    M = densify(M)
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


def grid_operator(
    grid: Grid1D,
    kind: str,
    block_dim: int = 1,
    func: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> scipy.sparse.csr_array:
    """Assemble a discrete operator on grid (x) C^block_dim as a CSR array.

    kind is one of 'momentum', 'parity', 'sign', 'position', 'multiply',
    'second_derivative'.  'multiply' requires func, evaluated on the nodes.
    """
    n = grid.size
    h = grid.spacing
    x = grid.nodes
    if kind == "momentum":
        off = np.full(n - 1, 1j / (2 * h))
        core = scipy.sparse.diags_array([off, -off], offsets=(-1, 1))
    elif kind == "second_derivative":
        core = scipy.sparse.diags_array(
            [np.full(n - 1, -1.0 / h**2), np.full(n, 2.0 / h**2),
             np.full(n - 1, -1.0 / h**2)], offsets=(-1, 0, 1), dtype=complex)
    elif kind == "parity":
        core = antidiagonal(np.ones(n))
    elif kind == "sign":
        core = scipy.sparse.diags_array(np.sign(x), dtype=complex)
    elif kind == "position":
        core = scipy.sparse.diags_array(x, dtype=complex)
    elif kind == "multiply":
        if func is None:
            raise ValueError("kind='multiply' requires func")
        core = scipy.sparse.diags_array(
            np.asarray([func(xi) for xi in x], dtype=complex))
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    if block_dim > 1:
        core = scipy.sparse.kron(core, scipy.sparse.eye_array(block_dim))
    return scipy.sparse.csr_array(core)


def indefinite_inner(f, g, J, weight, h: float) -> complex:
    """Quadrature of the indefinite form [f, g] = (f, W J g).

    Returns h * sum_j w_j (J g)_j conj(f_j), where weight holds the node
    values w_j of the diagonal operator W; they must be real and positive.
    h is the grid spacing.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    w = np.asarray(weight)
    if not (np.isrealobj(w) and np.all(w > 0)):
        raise ValueError("weight entries must be real positive")
    if not (f.shape == g.shape == w.shape and f.shape[0] == J.shape[0]):
        raise ValueError("dimension mismatch between vectors and operators")
    return complex(h * np.sum(w * (J @ g) * np.conj(f)))


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


def lowest(e, k: int) -> np.ndarray:
    """The k lowest values; the cut is extended so it splits no conjugate pair.

    Values are ordered by (real part, |imag|), where |Im lambda| <=
    REAL_TOL (1 + |lambda|) counts as real.  The partner of a kept nonreal
    lambda not yet paired is the unpaired value nearest conj(lambda), if it
    lies within |Im lambda| of it (so across the real axis); when that
    partner is outside the cut, the cut moves past it.
    """
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
            d[paired] = np.inf
            d[i] = np.inf
            j = int(np.argmin(d))
            if d[j] < abs(e[i].imag):
                paired[[i, j]] = True
                cut = max(cut, j + 1)
        i += 1
    return e[:cut]


def lowest_common(k: int, *spectra) -> list:
    """Cut several spectra at the smallest common k' >= k that splits no
    conjugate pair in any of them (see lowest).

    Each spectrum is an array of values or a callable mapping a cut to its
    pair-safe lowest values, such as lambda j: lowest_modes(M, j).
    """
    def low(s, j):
        return s(j) if callable(s) else lowest(s, j)

    while True:
        lows = [low(s, k) for s in spectra]
        lengths = {len(v) for v in lows}
        if len(lengths) == 1:
            return lows
        if min(lengths) < k:
            raise ValueError(f"a spectrum has fewer than {k} values")
        k = max(lengths)


MAX_ARNOLDI_MODES = 256   # largest set lowest_modes asks ARPACK for


def lowest_modes(M, k: int) -> np.ndarray:
    """The lowest eigenvalues of a sparse operator, as lowest(eig(M), k) would
    give them, by certified shift-invert Arnoldi.

    Shift-invert returns the values nearest its shift sigma, not the lowest
    by real part, so the selection is certified.  Re lambda >= mu, the
    lowest eigenvalue of the Hermitian part (M + M^H)/2 (one eigsh
    shift-invert from its Gershgorin lower bound), and |Im lambda| <= b,
    with b = sqrt(|S|_1 |S|_inf) >= |S|_2 for S = (M - M^H)/2 (Bendixson).
    eigs returns the k + margin values nearest sigma, just below mu; let R
    be the largest |lambda - sigma| among them and r_cut the largest real
    part kept.  Every eigenvalue with real part <= r_cut lies in
    [sigma, r_cut] x [-b, b], so if R^2 > (r_cut - sigma)^2 + b^2 all of
    them were returned and the kept set is the true lowest one.  The
    margin doubles until that holds; past MAX_ARNOLDI_MODES values (or
    n - 2) it raises RuntimeError rather than return an uncertified set.
    An operator too small for a first request of k + 4 values is solved by
    dense eig.

    The certificate cannot see a copy of an exactly degenerate eigenvalue
    that the Krylov space misses; verify-all checks this route against
    dense eig on the coarse matrix grid (matrix/lowest_modes_vs_dense_*).
    """
    import scipy.sparse.linalg   # 1.3 MB RSS, so only where it is used

    M = scipy.sparse.csc_array(M, dtype=complex)
    n = M.shape[0]
    if M.shape != (n, n) or not np.all(np.isfinite(M.data)):
        raise ValueError(f"expected a finite square matrix, got {M.shape}")
    margin = 4
    if k + margin > n - 2:
        return lowest(eig(M), k)
    MH = M.conj().T
    herm = (M + MH) / 2
    skew = abs((M - MH) / 2)
    b = float(np.sqrt(skew.sum(axis=0).max(initial=0.0)
                      * skew.sum(axis=1).max(initial=0.0)))
    diag = herm.diagonal().real
    gershgorin = float(np.min(diag + abs(diag) - abs(herm).sum(axis=1)))
    v0 = np.random.default_rng(0).standard_normal(n)   # reproducible start
    mu = scipy.sparse.linalg.eigsh(
        herm, 1, sigma=gershgorin - 1e-3 * (1 + abs(gershgorin)), v0=v0,
        return_eigenvectors=False)[0]
    sigma = mu - 1e-3 * (1 + abs(mu))
    nev_max = min(MAX_ARNOLDI_MODES, n - 2)
    while True:
        nev = min(k + margin, nev_max)
        vals = scipy.sparse.linalg.eigs(M, nev, sigma=sigma, v0=v0,
                                        return_eigenvectors=False)
        kept = lowest(vals, k)
        R = np.abs(vals - sigma).max()
        if R**2 > (kept.real.max() - sigma)**2 + b**2:
            return kept
        if nev == nev_max:
            raise RuntimeError(
                f"lowest_modes: no certified lowest {k} of {n} modes within "
                f"{nev} shift-invert values (Bendixson bound |Im| <= {b:.3g})")
        margin *= 2


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
    """2-norm estimate by 30 steps of power iteration on M^H M, from a
    fixed seeded start (cheap, deterministic).

    M may be a dense array or a scipy.sparse matrix.  A non-finite entry
    of M gives NaN; raises OverflowError if the iterate overflows.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(M.shape[0]) + 0j
    v /= np.linalg.norm(v)
    MH = M.conj().T
    n = 0.0
    for _ in range(30):
        w = MH @ (M @ v)
        n = np.linalg.norm(w)
        if not np.isfinite(n):
            if np.isfinite(M.data if scipy.sparse.issparse(M) else M).all():
                raise OverflowError("power iteration overflowed (extreme norm input)")
            return float("nan")
        if n == 0:
            return 0.0
        v = w / n
    return float(np.sqrt(n))
