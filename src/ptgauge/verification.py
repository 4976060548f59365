"""The checks behind `verify-all` and every other subcommand.

COMMANDS maps each subcommand to a frozen params dataclass (its flags,
defaults and domain checks) and its record functions (rep, params), which
run(name, params) calls in order into one timed Report: a subcommand's one
run_*, or for `verify-all` the list ALL_CHECKS itself.  Seven check_* call
the run_* of all eight subcommands at the case they check (point-angle at
[[1, i], [-i, 0]], point-spectrum at the delta well, cartan at verify-all's
seed, the others at their defaults) and add the suite's own records, among
them the same Cartan kernels at other signatures, named with a _p{p}q{q}
suffix.  The Lie-triple records are exhaustive over the unit draws, and
lts-check refuses a signature whose d^3 triples are over MAX_TRIPLE_WORK.
The library functions return residuals; each check turns them into
records, and CheckRecord.passed (finite and within the tolerance) is the
only pass/fail decision.  Boolean outcomes are encoded as residual 0.0
(ok) / 1.0 (violated) with tolerance 0.5 so every record fits the
residual-vs-tolerance scheme.
Every random draw uses an explicitly seeded generator.
"""

from __future__ import annotations

import cmath
import itertools
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
import scipy.linalg
import scipy.sparse

from . import abelian, cartan, cliffords, jaynes, pointint, schrodinger
from .linalg import MAX_ARNOLDI_MODES, Grid1D, eig, expm, grid_operator, \
    lowest_common, match_spectra, max_abs, pairing_check, smallest, \
    worst_residual
from .reporting import Report, Table

BETA = 0.3             # imaginary gauge slope of the abelian check
N_GROUP_SAMPLES = 50   # cartan samples at each signature verify-all adds
# point interaction grid oracle; the finite-width bias of the square
# well is about 2*width/3 on the energy, so width stays at 1e-3
WELL_WIDTH = 0.001
WELL_H = 0.00025
WELL_BOX = 8.0
# bytes of the largest single array a command may allocate; each params
# check() sizes its own largest array from the flags, before allocating it
MAX_ARRAY_BYTES = 2**30
# work budgets, fitted to run times on one OpenBLAS thread: lts-check's d^3
# triples at m cost d^3 m^3 units, 5 to 95 ns each, and the budget accepts
# up to signature (4, 4), d = 48 and m = 8, in 0.4 s; a cartan sample costs
# (m + 16)^3 units, 8 to 12 ns each from m = 2 to 200, so 2^27 take 1-1.6 s;
# two threads run m = 48..200 2-19x slower a sample: set OPENBLAS_NUM_THREADS=1
MAX_TRIPLE_WORK = 48**3 * 8**3
MAX_SAMPLE_WORK = 2**27


class UsageError(ValueError):
    """A parameter outside its domain; the command line exits 2 on it."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _parse_complex(text: str, key: str) -> complex:
    """Parse 're+imi' style complex entries ('1', '0.5-2i', '3i')."""
    try:
        value = complex(str(text).replace("i", "j").replace(" ", ""))
    except ValueError:
        raise UsageError(f"malformed complex value for {key}: {text!r}")
    _require(cmath.isfinite(value), f"{key} must be finite, got {text!r}")
    return value


def _range_parts(text: str, key: str) -> tuple:
    """Parse a 'start:stop:count' sweep range into (start, stop, count)."""
    try:
        start, stop, count = str(text).split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise UsageError(f"malformed range for {key}: {text!r} "
                         "(expected start:stop:count)")
    _require(math.isfinite(start) and math.isfinite(stop),
             f"range bounds for {key} must be finite, got {text!r}")
    _require(count >= 1, f"sweep count for {key} must be >= 1")
    return start, stop, count


def _parse_range(text: str, key: str) -> np.ndarray:
    """Parse a 'start:stop:count' sweep range into a linspace."""
    return np.linspace(*_range_parts(text, key))


def _size(count: int) -> str:
    """A count as a message gives it: exact up to 12 digits, so a byte
    count over the budget reads larger than it, else to 3 significant
    digits (an integer of any size)."""
    if count < 10**12:
        return str(count)
    from decimal import Decimal   # 0.15 MB RSS, so only for such a message
    return format(Decimal(count), ".3g")


def _require_budget(entries: int, what: str) -> None:
    """A usage error unless an array of that many complex entries fits."""
    if 16 * entries > MAX_ARRAY_BYTES:
        raise UsageError(f"{what} would allocate {_size(16 * entries)} bytes,"
                         f" over the {_size(MAX_ARRAY_BYTES)}-byte array budget")


def _require_work(work: int, limit: int, what: str) -> None:
    """A usage error unless that many units of work fit limit."""
    if work > limit:
        raise UsageError(f"{what} would take {_size(work)} units of work, "
                         f"over the {_size(limit)}-unit work budget")


# --------------------------------------------------------------------------
# Parameters: one frozen dataclass per subcommand.

@dataclass(frozen=True)
class _Params:
    """Float fields must be finite; check() rejects out-of-domain values."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float):
                _require(math.isfinite(value),
                         f"{f.name} must be finite, got {value}")
        self.check()


@dataclass(frozen=True)
class GaugeScalarParams(_Params):
    alpha: float = field(default=1.0,
                         metadata={"help": "constant real part of A"})
    beta: float = field(default=0.0, metadata={
        "help": "slope of the imaginary part of A (A = alpha + i beta x)"})
    box: float = 8.0
    h: float = 0.00625

    def check(self):
        # the largest array holds the weak form's nine test vectors
        n = self.grid().size
        _require_budget(9 * n, f"the test vectors on {_size(n)} grid nodes")
        abelian.require_weak_form_grid(self.grid())
        # |eta| = e^{beta x^2} must stay a positive finite float on the box;
        # alpha^2 <= 1e60 keeps H_g's entries, |H_g|'s sums and H_g T finite
        _require(abs(self.beta) <= 700 / (self.box * self.box),
                 f"need |beta| box^2 <= 700, got beta {self.beta}, "
                 f"box {self.box}")
        _require(abs(self.alpha) <= 1e30,
                 f"need |alpha| <= 1e30, got {self.alpha}")

    def grid(self) -> Grid1D:
        return Grid1D.from_box(self.box, self.h)


@dataclass(frozen=True)
class _SignatureParams(_Params):
    p: int = 2
    q: int = 1

    def signature(self) -> cartan.ThetaSignature:
        return cartan.ThetaSignature(p=self.p, q=self.q)


@dataclass(frozen=True)
class LtsParams(_SignatureParams):
    def check(self):
        sig = self.signature()   # ValueError unless p >= 1 and q >= 0
        # below p + q = 3, g_Theta has dimension <= 1: no bracket can leave it
        _require(self.p + self.q >= 3,
                 f"need p + q >= 3, got p {self.p}, q {self.q}")
        # this also keeps structure_check's stacks, d^2 m^2 entries, to MBs
        d, m = sig.n_draws, sig.m
        _require_work(d**3 * m**3, MAX_TRIPLE_WORK, f"the {_size(d)}^3 "
                      f"triples of unit draws at m = {_size(m)} (d^3 m^3)")


@dataclass(frozen=True)
class CartanParams(_SignatureParams):
    samples: int = 100
    seed: int = 0

    def check(self):
        m = self.signature().m
        _require(self.samples >= 1, "samples must be >= 1")
        _require(self.seed >= 0, "seed must be >= 0")
        # this also bounds every array: it refuses m > 496 even at one
        # sample, and a batch's stack of 3 m x m complex matrices at m = 496
        # takes 12 MB
        _require_work(self.samples * (m + 16)**3, MAX_SAMPLE_WORK,
                      f"--samples {_size(self.samples)} at m = {_size(m)} "
                      "(samples x (m + 16)^3)")


def _require_resolved(alpha: float, h: float, flag: str) -> None:
    """p's three-point stencil maps e^{ikx} to (sin kh / h) e^{ikx}, which
    stops growing at kh = pi/2: a gauge with eigenvalues +-alpha is not
    resolved on the grid past |alpha| h = pi/2."""
    _require(abs(alpha) * h <= math.pi / 2, f"need |{flag}| h <= pi/2, where "
             f"the grid resolves the gauge phase, got {flag} {alpha}, h {h}")


@dataclass(frozen=True)
class SpectrumMatrixParams(_Params):
    gauge_alpha: float = 0.3
    box: float = 8.0
    h: float = 0.05
    n_low: int = 16

    def check(self):
        # Hermitian for every real alpha: lowest_modes gives the lowest modes
        # at any cut, and the weak form's test vectors are the largest array
        dim = 2 * self.grid().size
        _require_budget(18 * dim,
                        f"the {_size(dim)} x 18 block of test vectors")
        abelian.require_weak_form_grid(self.grid())
        _require(1 <= self.n_low <= dim,
                 f"need 1 <= n-low <= {dim}, the operator dimension")
        # within the budget, box / h < 1e6, so this also keeps the phase
        # |alpha| box of e^{-iAx} far below 1/eps = 4.5e15
        _require_resolved(self.gauge_alpha, self.h, "gauge-alpha")

    def grid(self) -> Grid1D:
        return Grid1D.from_box(self.box, self.h)


@dataclass(frozen=True)
class JcParams(_Params):
    alpha: float = 0.3
    delta: float = 0.5
    n_max: int = 12
    h: float = 0.045

    def check(self):
        _require(self.n_max >= 2, "n-max must be >= 2")
        # two levels; the truncation check rebuilds at ceil(1.5 n_max).  The
        # CSR build assembles 3 m = 6 entries a row.  It is Hermitian, so eig
        # keeps kd + 1 <= 2 m of its diagonals, and densifies it only below
        # 32 kd <= 96 rows
        dim = 2 * ((3 * self.n_max + 1) // 2 + 1)
        _require_budget(6 * dim, f"the block rows of the {_size(dim)}-dim CSR "
                        "Fock build")
        # lowest_modes solves the grid build sparsely; its largest array is
        # an Arnoldi basis of at most 2 MAX_ARNOLDI_MODES + 1 vectors
        grid = self.grid()
        _require_budget((2 * MAX_ARNOLDI_MODES + 1) * 2 * grid.size,
                        "the Arnoldi basis of the two-level grid build")
        jaynes.require_oscillator_box(grid, self.n_max)
        # V(x) holds 2 delta, and a^2, about alpha^2, which the resolution
        # rule keeps below (pi / 2h)^2: both stay finite
        _require(abs(self.delta) <= 1e300,
                 f"need |delta| <= 1e300, got {self.delta}")
        _require_resolved(self.alpha, self.h, "alpha")

    def grid(self) -> Grid1D:
        return Grid1D.from_box(np.sqrt(2 * self.n_max) + 4.2, self.h)


def _require_roots(T: pointint.CouplingMatrixT, where: str = "") -> None:
    """Bound states come from det M(k) = c0 + c1 k + c2 k^2: |c0|, |c1| <=
    pointint.MAX_COEF keeps every root and -k^2 finite, and det T with c1."""
    c0, c1, _ = pointint.coefficients(T.t11, T.det, T.t22)
    _require(abs(c0) <= pointint.MAX_COEF and abs(c1) <= pointint.MAX_COEF,
             f"|c0|, |c1| of det M(k) must be <= {pointint.MAX_COEF}{where}, "
             f"got c0 = {c0}, c1 = {c1}")


@dataclass(frozen=True)
class CouplingParams(_Params):
    t11: str = "-2"
    t12: str = "1i"
    t21: str = "4i"
    t22: str = "1"

    def check(self):
        _require_roots(self.coupling())

    def coupling(self) -> pointint.CouplingMatrixT:
        return pointint.CouplingMatrixT(
            **{k: _parse_complex(v, k) for k, v in asdict(self).items()})


@dataclass(frozen=True)
class PointAngleParams(CouplingParams):
    """The coupling of point-angle, which must be PT-symmetric; point-angle
    finds no roots, so only the entries are bounded: |t_ij| <= 1e150 keeps
    det T + 4 and the products of two entries in point/matrix_relation
    finite."""

    def check(self):
        T = self.coupling()
        t_max = float(np.abs(T.matrix).max())
        _require(t_max <= 1e150, f"need |t_ij| <= 1e150, got {t_max:g}")
        _require(T.is_pt_symmetric,
                 "coupling matrix is not PT-symmetric (t11, t22 must be real; "
                 "t12, t21 purely imaginary)")


@dataclass(frozen=True)
class PhaseDiagramParams(_Params):
    t11_range: str = "-2:1:4"
    t22_range: str = "-1:1:3"
    im_t12_range: str = "-1.5:1.5:4"
    im_t21_range: str = "-1.5:1.5:4"

    def _ranges(self) -> list:
        return [(k.replace("_", "-"), v) for k, v in asdict(self).items()]

    def check(self):
        # sized before any linspace: each sweep row is a table row of 12 cells
        parts = [_range_parts(v, k) for k, v in self._ranges()]
        rows = math.prod(count for _, _, count in parts)
        flags = ", ".join("--" + k for k, _ in self._ranges())
        _require_budget(12 * rows, f"the {_size(rows)}-row sweep of {flags} "
                        "(12 cells a row)")
        # c0 = t11 and c1 = 2 - (t11 t22 + im_t12 im_t21) / 2 are real and
        # multilinear in the couplings, so their moduli on the sweep are
        # largest at its 16 corners
        for t11, t22, b12, b21 in itertools.product(
                *[(start, stop) for start, stop, _ in parts]):
            _require_roots(
                pointint.CouplingMatrixT(t11=t11, t12=1j * b12, t21=1j * b21,
                                         t22=t22),
                f" over the sweep of {flags} (at t11={t11}, t22={t22}, "
                f"im_t12={b12}, im_t21={b21})")

    def axes(self) -> tuple:
        return tuple(_parse_range(v, k) for k, v in self._ranges())


@dataclass(frozen=True)
class VerifyConfig(_Params):
    seed: int = 20260823

    def check(self):
        _require(self.seed >= 0, "seed must be >= 0")


# --------------------------------------------------------------------------
# Checks and subcommands, by area.

def _bool(rep: Report, name: str, ok: bool):
    rep.add(name, 0.0 if ok else 1.0, 0.5)


def _element_11(v: float):
    """Theta = sigma_3 and the element of g_Theta with off-diagonal block v."""
    sig = cartan.ThetaSignature(p=1, q=1)
    return sig, cartan.make_element(sig, np.zeros((1, 1)), [[v]],
                                    np.zeros((1, 1)))


def _worst(*residuals) -> float:
    """worst_residual over the entries of residual arrays."""
    return worst_residual(np.concatenate([np.ravel(r) for r in residuals]))


def _elements_and_x(sig: cartan.ThetaSignature, rng, k: int, x_max: float):
    """k elements and k points in [-x_max, x_max], drawn in the order of k
    rounds of random_element(sig, rng) then rng.uniform(-x_max, x_max)."""
    z = np.empty((k, sig.n_draws))
    x = np.empty(k)
    for i in range(k):
        z[i] = rng.standard_normal(sig.n_draws)
        x[i] = rng.uniform(-x_max, x_max)
    return cartan.elements_from_draws(sig, z), x


def _span_dim(P, R, res: float) -> int:
    """Rank of vec{I, P, R, PR} for sparse P, R and finite residual res."""
    eye = scipy.sparse.eye_array(P.shape[0], format="csr")
    S = scipy.sparse.vstack([b.reshape((1, -1))
                             for b in (eye, P, R, P @ R)]).tocoo()
    # the stack on the k positions any of the four stores: its other
    # dim^2 - k columns are zero and do not change the rank
    _, cols = np.unique(S.col, return_inverse=True)
    stack = scipy.sparse.coo_array((S.data, (S.row, cols))).toarray()
    return int(np.linalg.matrix_rank(stack, tol=1e-10 * max(1.0, res + 1)))


def check_clifford_relations(rep: Report, cfg: VerifyConfig):
    grid = Grid1D(half_count=64, spacing=0.1)
    P = grid_operator(grid, "parity")
    R = grid_operator(grid, "sign")
    res = cliffords.verify_clifford_relations(P, R)
    rep.add("clifford/anticommutation_and_squares", res, 0.0)
    # no rank past a NaN residual: an SVD of a NaN stack does not converge
    _bool(rep, "clifford/span_dim_4",
          math.isfinite(res) and _span_dim(P, R, res) == 4)


def check_rotated_involution(rep: Report, cfg: VerifyConfig):
    grid = Grid1D(half_count=32, spacing=0.1)
    P = grid_operator(grid, "parity")
    R = grid_operator(grid, "sign")
    eye = scipy.sparse.eye_array(grid.size)
    squares, hermitian = [], []
    for phi in np.linspace(-3.0, 3.0, 20):
        M = cliffords.rotated_involution(P, R, float(phi)).matrix
        squares.append(abs(M @ M - eye).max())
        hermitian.append(abs(M - M.conj().T).max())
    rep.add("rotated_involution/squares_to_identity",
            worst_residual(squares), 1e-12)
    rep.add("rotated_involution/hermitian", worst_residual(hermitian), 1e-12)


def weak_form(A, grid: Grid1D):
    """Gauge factorization residuals and weak form of H_g = (p - A)^2 + x^2."""
    fact = abelian.gauge_factorization(A, grid)
    H = abelian.build_scalar_hamiltonian(
        abelian.ScalarPotentials(A=A, V=lambda t: t**2), grid)
    return fact.residuals, abelian.verify_pseudo_hermiticity(H, fact)


def check_abelian_gauge(rep: Report, cfg: VerifyConfig):
    scalar = GaugeScalarParams()
    grid = Grid1D.from_box(scalar.box, SpectrumMatrixParams.h)
    x = grid.nodes

    # closed forms at desk resolution
    fact_b = abelian.gauge_factorization(lambda t: 1j * BETA * t, grid)
    ref_uh = np.exp(BETA * x**2 / 2)
    # scaled by the reciprocal, which is how numpy divides complex numbers,
    # so these digits do not depend on whether u_h is stored real or complex
    rep.add("abelian/Uh_closed_form_beta",
            float(np.abs((fact_b.u_h - ref_uh) * (1 / ref_uh)).max()), 1e-11)
    rep.add("abelian/abs_eta_closed_form_beta",
            float(np.abs((fact_b.abs_eta - ref_uh**2) * (1 / ref_uh**2)).max()),
            1e-11)
    P = grid_operator(grid, "parity")
    rep.add("abelian/J_equals_parity_beta",
            worst_residual(abs(fact_b.J - P).data), 1e-12)

    fact_a = abelian.gauge_factorization(lambda t: scalar.alpha + 0j, grid)
    rep.add("abelian/Uu_closed_form_alpha",
            float(np.abs(fact_a.u_u - np.exp(-1j * scalar.alpha * x)).max()), 1e-10)
    rep.add("abelian/abs_eta_identity_alpha",
            float(np.abs(fact_a.abs_eta - 1.0).max()), 1e-12)
    J = fact_a.J
    rep.add("abelian/J_involution_alpha",
            worst_residual(abs(J @ J - scipy.sparse.eye_array(grid.size)).data),
            1e-12)
    _bool(rep, "abelian/J_differs_from_parity_alpha",
          worst_residual(abs(J - P).data) > 0.1)
    for name, fact in (("beta", fact_b), ("alpha", fact_a)):
        rep.add(f"abelian/polar_identities_{name}",
                worst_residual(fact.residuals[k] for k in
                               ("polar", "J_involution", "J_hermitian")), 1e-10)

    # weak form on the fine grid: gauge-scalar's alpha, then A = i beta x
    run_gauge_scalar(rep, scalar)
    out = weak_form(lambda t: 1j * BETA * t, scalar.grid())[1]
    rep.add("abelian/pseudo_hermiticity_r1_beta", out.r1, 1e-8)
    _bool(rep, "abelian/naive_parity_residual_large_beta", out.r2_abs > 0.1)
    rep.add("abelian/weighted_form_identity_beta",
            out.weighted_form_residual, 1e-5)


def run_gauge_scalar(rep: Report, params: GaugeScalarParams):
    A = lambda x: params.alpha + 1j * params.beta * x
    residuals, out = weak_form(A, params.grid())
    for name, val in sorted(residuals.items()):
        rep.add(f"factorization/{name}", val, 1e-10)
    rep.add("pseudo_hermiticity/r1", out.r1, 1e-8)
    rep.add("pseudo_hermiticity/weighted_form", out.weighted_form_residual, 1e-5)
    if abs(params.alpha) > 0:
        _bool(rep, "pseudo_hermiticity/naive_parity_r2_large", out.r2_abs > 0.1)
    rep.config.update(r1_abs=out.r1_abs, r2_abs=out.r2_abs, norm_H=out.norm_H)


def _lts_records(rep: Report, sig, closure: str, escape: str):
    """cartan.structure_check's records at sig, and its report.  A nonzero
    bracket escapes at ratio 2; with none the escape record fails."""
    out = cartan.structure_check(sig)
    rep.add(closure, out.closure_residual, 1e-12)
    _bool(rep, escape, out.escaping_pairs > 0 and out.min_escape_ratio > 0.1)
    return out


def check_cartan_lts(rep: Report, cfg: VerifyConfig):
    for (p, q) in ((2, 1), (2, 2), (3, 1)):
        if (p, q) == (LtsParams.p, LtsParams.q):   # lts-check's default
            out = run_lts_check(rep, LtsParams())
        else:
            out = _lts_records(rep, cartan.ThetaSignature(p=p, q=q),
                               f"cartan/ternary_closure_p{p}q{q}",
                               f"cartan/binary_escape_p{p}q{q}")
        _bool(rep, f"cartan/dim_k_pq_p{p}q{q}", out.dims[0] == p * q)
        _bool(rep, f"cartan/dim_p_p{p}q{q}",
              out.dims[1] == p * (p - 1) // 2 + q * (q - 1) // 2)


def run_lts_check(rep: Report, params: LtsParams):
    """Returns cartan.structure_check's report."""
    out = _lts_records(rep, params.signature(), "lts/ternary_closure",
                       "lts/binary_bracket_escapes")
    rep.config["escaping_pairs"] = out.escaping_pairs
    return out


def _exp_residual(comp: cartan.CartanComponents, sig: cartan.ThetaSignature,
                  x) -> np.ndarray:
    """Gap between the closed-form exp(b x) and scipy's expm of b x, for
    each element of the stack comp at each x (which broadcasts against it).

    exp(c x) has no closed form here: exp_noncompact is expm of c x itself,
    so it is checked against its truth (`cartan/boost_example`) and by the
    parity, metric and polar relations, not against expm."""
    return max_abs(cartan.exp_compact(comp, sig, x)
                   - expm(comp.b * np.asarray(x)[..., None, None]))


def check_closed_form_exponentials(rep: Report, cfg: VerifyConfig):
    """cartan's records at its default signature and verify-all's seed, the
    same loop at (1,1), (2,2) and (3,1) at seeds one, two and three past it,
    and the m = 2 worked examples."""
    run_cartan(rep, CartanParams(seed=cfg.seed))
    for i, (p, q) in enumerate(((1, 1), (2, 2), (3, 1)), 1):
        run_cartan(rep, CartanParams(p=p, q=q, samples=N_GROUP_SAMPLES,
                                     seed=cfg.seed + i), f"_p{p}q{q}")

    # m = 2 worked cases: SO(2) rotation (Theta = sigma_3) and cosh/sinh boost
    alpha = 0.7
    sig_r, el = _element_11(alpha)
    x = np.array([-2.0, 0.3, 1.0])
    Uk = cartan.exp_compact(cartan.cartan_split(el), sig_r, x)
    ref = np.array([[np.cos(alpha * x), np.sin(alpha * x)],
                    [-np.sin(alpha * x), np.cos(alpha * x)]])
    rep.add("cartan/so2_rotation_example",
            worst_residual(max_abs(Uk - np.moveaxis(ref, -1, 0))), 1e-12)

    sig_b = cartan.ThetaSignature(p=2, q=0)
    u = alpha * np.array([[0.0, -1.0], [1.0, 0.0]])
    el = cartan.make_element(sig_b, u, np.zeros((2, 0)), np.zeros((0, 0)))
    sigma2 = np.array([[0, -1j], [1j, 0]])
    x = np.array([-1.5, 0.4, 1.0])
    Up = cartan.exp_noncompact(cartan.cartan_split(el), sig_b, x)
    xm = x[:, None, None]
    ref = np.cosh(alpha * xm) * np.eye(2) + np.sinh(alpha * xm) * sigma2
    rep.add("cartan/boost_example", worst_residual(max_abs(Up - ref)), 1e-12)


def check_parity_metric_relations(rep: Report, cfg: VerifyConfig):
    """The relations on the m = 2 worked cases; run_cartan samples them."""
    el_r = _element_11(0.5)[1]
    sig_b = cartan.ThetaSignature(p=2, q=0)
    u = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    el_b = cartan.make_element(sig_b, u, np.zeros((2, 0)), np.zeros((0, 0)))
    x = np.array([0.5, 2.0])
    rep.add("cartan/parity_metric_relations_m2_examples",
            _worst(*(cartan.parity_relations_check(el, x).max_residual
                     for el in (el_r, el_b))), 1e-10)


def run_cartan(rep: Report, params: CartanParams, suffix: str = ""):
    """The group-level records of params.samples sampled elements, each
    name ending in suffix."""
    sig = params.signature()
    rng = np.random.default_rng(params.seed)
    wick_res, exp_res, parity_res, polar_res = [], [], [], []
    # batches of at most BATCH_BYTES of m x m complex matrices a stack
    n, per = params.samples, max(1, cartan.BATCH_BYTES // (16 * sig.m**2))
    for start in range(0, n, per):
        el, x = _elements_and_x(sig, rng, min(per, n - start), 3.0)
        comp = cartan.cartan_split(el)
        # also the distance of f = -i a from so(m,C) and su(p,q)
        wick_res.append(_worst(cartan.membership_residual(el.matrix, sig)))
        exp_res.append(_worst(_exp_residual(comp, sig, x)))
        parity_res.append(
            _worst(cartan.parity_relations_check(el, x).max_residual))
        U = cartan.exp_compact(comp, sig, x) @ cartan.exp_noncompact(comp, sig, x)
        polar_res.append(_worst(*cartan.group_polar(U, sig).residuals.values()))
    for name, res, tol in (("wick_membership", wick_res, 1e-12),
                           ("closed_form_exponentials", exp_res, 1e-10),
                           ("parity_metric_relations", parity_res, 1e-10),
                           ("group_polar_structure", polar_res, 1e-8)):
        rep.add(f"cartan/{name}{suffix}", worst_residual(res), tol)


def matrix_example(gauge_alpha: float):
    """Theta, the gauge alpha sigma_2 and V = x^2 I of the matrix example."""
    sig, el = _element_11(-gauge_alpha)
    gauge = schrodinger.ConstantGauge(A=el.gauge_potential)  # = alpha sigma_2
    pot = schrodinger.MatrixPotential(m=2, V=lambda x: x**2 * np.eye(2))
    return sig, gauge, pot


def check_matrix_schrodinger(rep: Report, cfg: VerifyConfig):
    params = SpectrumMatrixParams()
    example, res, coarse = run_spectrum_matrix(rep, params)
    P_bold = schrodinger.extended_parity(res.grid, example[0])
    e_Hg, e_H = (eig(M, P_bold) for M in (res.H_g, res.H))
    # the literal similarity transform is spectrally exact
    sim = match_spectra(e_Hg, eig(
        schrodinger.similarity_transform(res), P_bold))
    rep.add("matrix/similarity_spectrum_exact", float(sim.max()), 1e-6)
    # the whole spectra are the oracle of spectral_compare's lowest modes,
    # which lowest_modes gives for this Hermitian example
    gaps = [schrodinger.match_distance(*lowest_common(params.n_low, e, low))
            for e, low in ((e_Hg, coarse.lowest_Hg), (e_H, coarse.lowest_H))]
    rep.add("matrix/lowest_modes_vs_dense_h0.05", worst_residual(gaps), 1e-10)
    fine_grid = replace(params, h=params.h / 2).grid()
    fine = schrodinger.lowest_mode_match(
        schrodinger.build_and_regauge(*example[1:], fine_grid), params.n_low)
    order = float(np.log2(coarse.max_match_dist / fine))
    _bool(rep, "matrix/convergence_order_ge_1.8", order >= 1.8)
    rep.config["matrix_convergence_order"] = order


def run_spectrum_matrix(rep: Report, params: SpectrumMatrixParams):
    """Symmetry audit and dual-build spectral records of the matrix example;
    returns the example, its two builds and their spectral comparison."""
    example = sig, gauge, pot = matrix_example(params.gauge_alpha)
    grid = params.grid()
    audit = schrodinger.symmetry_audit(gauge, pot, sig, grid)
    rep.add("matrix/symmetry_audit", worst_residual(audit.values()), 1e-12)
    res = schrodinger.build_and_regauge(gauge, pot, grid)
    out = schrodinger.spectral_compare(res, sig, n_low=params.n_low)
    rep.add("matrix/spectral_match", out.max_match_dist, 5e-2)
    _bool(rep, "matrix/pairing_Hg", out.pairing_Hg != "unpaired")
    _bool(rep, "matrix/pairing_H", out.pairing_H != "unpaired")
    rep.add("matrix/parity_pseudo_hermiticity", out.parity_residual, 1e-6)
    lg, lh = out.lowest_Hg, out.lowest_H
    rep.tables.append(Table(
        name="spectrum",
        columns=["index", "re_lambda_Hg", "im_lambda_Hg",
                 "re_lambda_H", "im_lambda_H", "match_dist"],
        rows=list(zip(range(len(lg)), lg, lh, abs(lg - lh) / (1 + abs(lg))))))
    return example, res, out


def _jc_model(params: JcParams):
    sig, el = _element_11(params.alpha)
    return sig, el, jaynes.LevelEnergies(omega=np.array([0.0, params.delta]))


def check_jaynes_cummings(rep: Report, cfg: VerifyConfig):
    params = JcParams()
    # decoupled case: spectrum is exactly {2(n + omega_j)}
    _, el0, omega = _jc_model(replace(params, alpha=0.0))
    H0 = jaynes.build_jc(jaynes.nilpotent_split(el0), omega, params.n_max)
    expected = np.sort(np.array(
        [2 * (n + wj) for n in range(params.n_max + 1) for wj in omega.omega]))
    got = np.sort(eig(H0).real)
    rep.add("jc/decoupled_spectrum_exact",
            float(np.abs(got - expected).max()), 1e-12)

    run_jc(rep, params)


def run_jc(rep: Report, params: JcParams):
    """PT symmetry of the Fock build and its agreement with the grid build."""
    sig, el, omega = _jc_model(params)
    H = jaynes.build_jc(jaynes.nilpotent_split(el), omega, params.n_max)
    rep.add("jc/pt_symmetry", jaynes.jc_pt_check(H, sig), 1e-12)
    eq = jaynes.jc_equivalence_check(el, omega, params.grid(), params.n_max)
    rep.add("jc/grid_vs_fock", eq.max_dev, 5e-2)
    rep.add("jc/truncation_convergence", eq.truncation_shift, 1e-6)
    rep.tables.append(Table(
        name="levels",
        columns=["index", "re_lambda_grid", "im_lambda_grid",
                 "re_lambda_fock", "im_lambda_fock"],
        rows=list(enumerate(np.c_[eq.grid_eigenvalues, eq.fock_eigenvalues]))))


def check_point_angle(rep: Report, cfg: VerifyConfig):
    rng = np.random.default_rng(cfg.seed + 3)
    T0 = pointint.CouplingMatrixT(t11=1.2, t12=0.7j, t21=0.7j, t22=-0.4)
    sol0 = pointint.clifford_angle(T0)
    rep.add("point/phi_zero_when_t12_equals_t21", abs(sol0.phi), 0.0)

    sol1 = run_point_angle(rep, PointAngleParams(t11="1", t12="1i",
                                                 t21="-1i", t22="0"))
    rep.add("point/phi_reference_value",
            abs(sol1.phi - np.arctan2(4, 3)), 1e-13)

    residuals = []
    perturbed = []
    for _ in range(100):
        T = pointint.CouplingMatrixT(
            t11=float(rng.uniform(-3, 3)), t22=float(rng.uniform(-3, 3)),
            t12=1j * float(rng.uniform(-3, 3)),
            t21=1j * float(rng.uniform(-3, 3)))
        sol = pointint.clifford_angle(T)
        residuals.append(pointint.matrix_relation_residual(T, sol.m1, sol.m2))
        if not sol.degenerate:
            perturbed.append(pointint.matrix_relation_residual(
                T, *pointint.p_phi_blocks(sol.phi + 0.1)))
    rep.add("point/matrix_relation_at_solved_phi",
            worst_residual(residuals), 1e-12)
    _bool(rep, "point/matrix_relation_fails_at_wrong_phi",
          smallest(perturbed) > 1e-6)


def run_point_angle(rep: Report, params: PointAngleParams):
    T = params.coupling()
    sol = pointint.clifford_angle(T)
    rep.config.update(phi=sol.phi, degenerate=sol.degenerate)
    rep.add("point/defining_relation", sol.residual, 1e-13)
    samples = [
        pointint.PiecewiseFunction(1.0, 0.5, -0.3, 0.7),
        pointint.PiecewiseFunction(0.2 + 1j, -0.4, 1.1, -0.6 + 0.3j),
    ]
    bt = pointint.boundary_transform_check(T, sol, samples)
    rep.add("point/gamma_transform", bt.gamma_residual, 1e-12)
    rep.add("point/matrix_relation", bt.matrix_residual, 1e-12)
    return sol


def delta_well_grid_energy(t11: float) -> float:
    """Independent grid oracle: delta well as a narrow deep square well.

    The lowest eigenvalue of its n-node Jacobi matrix T, from the even half:
    x_{n-1-j} = -x_j bit for bit (n even) and V is even, so T commutes with
    the flip, and its lowest eigenvector, simple and positive (Perron: T is
    irreducible with negative off-diagonal), is even.  That half is rows
    n/2..n-1, the first diagonal lowered by 1/h^2 (the row's mirror
    neighbour is itself).  Bisection runs on (lo, hi], lo below Gershgorin's
    floor min V, hi the Rayleigh quotient of the even vector e^{t11|x|/2}.
    The bisection follows hi within its tolerance, so hi is summed without
    cancellation and without BLAS, whose order follows its thread count.
    """
    h, n = WELL_H, int(round(2 * WELL_BOX / WELL_H))
    x = (np.arange(n // 2, n) - (n - 1) / 2) * h
    V = np.where(x < WELL_WIDTH / 2, t11 / WELL_WIDTH, 0.0)
    diag = 2 / h**2 + V
    diag[0] -= 1 / h**2
    off = np.full(n // 2 - 1, -1 / h**2)
    u = np.exp(t11 * x / 2)
    # u^T T u = sum V u^2 + sum du^2 / h^2, du each step to the next node,
    # the last to the zero past the box
    rayleigh = ((np.sum(np.diff(u, append=0.0)**2) / h**2 + np.sum(V * u * u))
                / np.sum(u * u))
    return float(scipy.linalg.eigh_tridiagonal(
        diag, off, eigvals_only=True, select="v",
        select_range=(V.min() - 1, rayleigh))[0])


def check_point_spectrum(rep: Report, cfg: VerifyConfig):
    states = run_point_spectrum(rep, CouplingParams(t11="-2", t12="0",
                                                    t21="0", t22="0"))
    _bool(rep, "point/delta_well_single_state", len(states) == 1)
    # NaN, so the record fails, unless there is exactly one state to read
    energy = states[0].energy if len(states) == 1 else np.nan
    rep.add("point/delta_well_energy", abs(energy - (-1.0)), 1e-12)
    rep.add("point/delta_well_grid_oracle",
            abs(delta_well_grid_energy(-2.0) - (-1.0)), 1e-3)

    sweep = run_phase_diagram(rep, PhaseDiagramParams())
    symmetric = np.abs(sweep.im_t12 - sweep.im_t21) < 1e-14
    _bool(rep, "point/sweep_phi_zero_slice",
          np.all(np.abs(sweep.phi[symmetric]) < 1e-14))


def run_point_spectrum(rep: Report, params: CouplingParams):
    T = params.coupling()
    states = pointint.bound_states(T)
    rep.config.update(n_bound=len(states), pt_symmetric=T.is_pt_symmetric)
    if states:   # n_bound: 0 says why no record is asserted
        rep.add("point/domain_residuals",
                worst_residual(s.domain_residual for s in states), 1e-10)
        cls = pairing_check([s.energy for s in states], 1e-8)
        # the paper claims the pairing for PT-symmetric couplings only
        if T.is_pt_symmetric:
            _bool(rep, "point/conjugate_pairing", cls != "unpaired")
        rep.config["classification"] = cls
    rep.tables.append(Table(
        name="bound_states",
        columns=["index", "kappa_re", "kappa_im", "e_re", "e_im",
                 "domain_residual"],
        rows=[[i, s.kappa, s.energy, s.domain_residual]
              for i, s in enumerate(states)]))
    return states


def run_phase_diagram(rep: Report, params: PhaseDiagramParams):
    """Conjugate pairing over a coupling sweep, and its phase-diagram table."""
    sweep = pointint.pt_phase_sweep(*params.axes())
    unpaired = pointint.CLASSIFICATIONS.index("unpaired")
    _bool(rep, "sweep/conjugate_pairing",
          np.all(sweep.classification != unpaired))
    rep.tables.append(Table(
        name="phase_diagram",
        columns=["t11", "t22", "im_t12", "im_t21", "phi", "degenerate",
                 "n_bound", "e1_re", "e1_im", "e2_re", "e2_im",
                 "classification"],
        rows=sweep))
    return sweep


ALL_CHECKS = [
    check_clifford_relations,
    check_rotated_involution,
    check_abelian_gauge,
    check_cartan_lts,
    check_closed_form_exponentials,
    check_parity_metric_relations,
    check_matrix_schrodinger,
    check_jaynes_cummings,
    check_point_angle,
    check_point_spectrum,
]


@dataclass(frozen=True)
class Command:
    params: type
    records: list   # record functions (rep, params), run in this order
    help: str
    format: str = "json"   # default --format


COMMANDS = {
    "gauge-scalar": Command(GaugeScalarParams, [run_gauge_scalar],
                            "Abelian gauge factorization and metric checks"),
    "cartan": Command(CartanParams, [run_cartan],
                      "gauge algebra structure checks"),
    "lts-check": Command(LtsParams, [run_lts_check],
                         "Lie-triple closure and escape, exhaustive over "
                         "a spanning set"),
    "spectrum-matrix": Command(SpectrumMatrixParams, [run_spectrum_matrix],
                               "matrix Schrodinger dual-build spectra", "both"),
    "jc": Command(JcParams, [run_jc], "truncated-Fock two-level model checks"),
    "point-angle": Command(PointAngleParams, [run_point_angle],
                           "point angle for one coupling matrix"),
    "point-spectrum": Command(CouplingParams, [run_point_spectrum],
                              "point spectrum for one coupling matrix"),
    "phase-diagram": Command(PhaseDiagramParams, [run_phase_diagram],
                             "sweep over coupling matrices", "csv"),
    # the list object itself, so a check replaced in ALL_CHECKS runs here
    "verify-all": Command(VerifyConfig, ALL_CHECKS,
                          "run the full verification suite", "both"),
}


def run(name: str, params) -> Report:
    """Run command name's record functions in order into one Report, with
    each one's wall time in timings and their sum in wall_time."""
    rep = Report(command=name, config=asdict(params),
                 seed=getattr(params, "seed", 0))
    for record in COMMANDS[name].records:
        t = time.perf_counter()
        record(rep, params)
        rep.timings[record.__name__] = time.perf_counter() - t
    rep.wall_time = sum(rep.timings.values())
    return rep
