"""The checks behind `verify-all` and every other subcommand.

COMMANDS maps each subcommand to a frozen params dataclass (its flags,
defaults and domain checks) and the function that runs it; `verify-all`
runs the check_* functions of ALL_CHECKS, which share their loops with the
subcommands and take their parameters from the subcommands' defaults.
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
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse

from . import abelian, cartan, cliffords, jaynes, pointint, schrodinger
from .linalg import MAX_ARNOLDI_MODES, Grid1D, eig, expm, grid_operator, \
    lowest_common, lowest_modes, match_spectra, max_abs, pairing_check, \
    smallest, worst_residual
from .reporting import Report, Table

BETA = 0.3             # imaginary gauge slope of the abelian check
N_PARITY_DRAWS = 500
# bytes of one stacked (k, m, m) complex array in a sampled Cartan check;
# these checks run batch by batch, so their peak memory does not grow with
# the sample count, and a large m gets batches of one element
BATCH_BYTES = 2**18
# point interaction grid oracle; the finite-width bias of the square
# well is about 2*width/3 on the energy, so width stays at 1e-3
WELL_WIDTH = 0.001
WELL_H = 0.00025
WELL_BOX = 8.0
# bytes of the largest single array a command may allocate; each params
# check() sizes its own largest array from the flags, before allocating it
MAX_ARRAY_BYTES = 2**30


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


def _require_budget(entries: int, what: str) -> None:
    """A usage error unless an array of that many complex entries fits."""
    _require(16 * entries <= MAX_ARRAY_BYTES,
             f"{what} would allocate {16 * entries} bytes, over the "
             f"{MAX_ARRAY_BYTES}-byte array budget")


def _require_dense(dim: int, what: str) -> None:
    _require_budget(dim * dim, f"{what} (a dense {dim} x {dim} complex matrix)")


def _grid(box: float, h: float) -> Grid1D:
    """The staggered grid on [-box, box]; a usage error if it has no node."""
    _require(h > 0 and 0.5 < box / h < math.inf,
             f"need h > 0 and box > h / 2, got box {box}, h {h}")
    return Grid1D.from_box(box, h)


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
    tol: float = 1e-8

    def check(self):
        # the largest array holds the weak form's nine test vectors
        n = self.grid().size
        _require_budget(9 * n, f"the test vectors on {n} grid nodes")
        _require(self.tol > 0, "tol must be positive")
        # |eta| = e^{beta x^2} must stay a positive finite float on the box,
        # and the squared norm of H_g^H H_g v, about alpha^8, must not overflow
        _require(abs(self.beta) <= 700 / (self.box * self.box),
                 f"need |beta| box^2 <= 700, got beta {self.beta}, "
                 f"box {self.box}")
        _require(abs(self.alpha) <= 1e30,
                 f"need |alpha| <= 1e30, got {self.alpha}")

    def grid(self) -> Grid1D:
        return _grid(self.box, self.h)


@dataclass(frozen=True)
class CartanParams(_Params):
    p: int = 2
    q: int = 1
    samples: int = 100
    seed: int = 0

    def check(self):
        m = self.signature().m   # ValueError unless p >= 1 and q >= 0
        _require_dense(m, "signature (p, q)")
        _require(self.samples >= 1, "samples must be >= 1")
        _require(self.seed >= 0, "seed must be >= 0")

    def signature(self) -> cartan.ThetaSignature:
        return cartan.ThetaSignature(p=self.p, q=self.q)


@dataclass(frozen=True)
class LtsParams(CartanParams):
    samples: int = 1000

    def check(self):
        super().check()
        # below p + q = 3, g_Theta has dimension <= 1: no bracket can leave it
        _require(self.p + self.q >= 3,
                 f"need p + q >= 3, got p {self.p}, q {self.q}")


@dataclass(frozen=True)
class SpectrumMatrixParams(_Params):
    gauge_alpha: float = 0.3
    box: float = 8.0
    h: float = 0.05
    n_low: int = 16

    def check(self):
        # Hermitian for every real alpha, so eig takes the band route and the
        # weak form's test vectors are the largest array
        dim = 2 * self.grid().size
        _require_budget(18 * dim, f"the {dim} x 18 block of test vectors")
        _require(self.n_low >= 1, "n-low must be >= 1")
        # e^{-iAx} turns by up to |alpha| box rad: expm keeps no digit of
        # that past 1/eps = 4.5e15, and near 1e18 the regauged build overflows
        _require(abs(self.gauge_alpha) * self.box <= 1e15, "need |gauge-alpha| "
                 f"box <= 1e15, got {self.gauge_alpha}, box {self.box}")

    def grid(self) -> Grid1D:
        return _grid(self.box, self.h)


@dataclass(frozen=True)
class JcParams(_Params):
    alpha: float = 0.3
    delta: float = 0.5
    n_max: int = 12
    h: float = 0.045

    def check(self):
        _require(self.n_max >= 2, "n-max must be >= 2")
        # two levels; the truncation check rebuilds at ceil(1.5 n_max)
        _require_dense(2 * ((3 * self.n_max + 1) // 2 + 1), "the Fock build")
        # lowest_modes solves the grid build sparsely; its largest array is
        # an Arnoldi basis of at most 2 MAX_ARNOLDI_MODES + 1 vectors
        grid = self.grid()
        _require_budget((2 * MAX_ARNOLDI_MODES + 1) * 2 * grid.size,
                        "the Arnoldi basis of the two-level grid build")
        jaynes.require_oscillator_box(grid, self.n_max)
        # V(x) holds a^2, about alpha^2, and 2 delta: both must stay finite
        _require(abs(self.alpha) <= 1e150 and abs(self.delta) <= 1e300,
                 f"need |alpha| <= 1e150 and |delta| <= 1e300, got alpha "
                 f"{self.alpha}, delta {self.delta}")

    def grid(self) -> Grid1D:
        return _grid(np.sqrt(2 * self.n_max) + 4.2, self.h)


def _require_roots(T: pointint.CouplingMatrixT, where: str = "") -> None:
    """Bound states come from det M(k) = c0 + c1 k + c2 k^2: |c0|, |c1| <=
    pointint.MAX_COEF keeps every root and -k^2 finite, and det T with c1."""
    c0, c1, _ = pointint.coefficients(T.t11, T.det, T.t22)
    _require(abs(c0) <= pointint.MAX_COEF and abs(c1) <= pointint.MAX_COEF,
             f"|c0|, |c1| of det M(k) must be <= {pointint.MAX_COEF}{where}, "
             f"got c0 = {c0}, c1 = {c1}")


@dataclass(frozen=True)
class CouplingParams(_Params):
    t11: str = "1"
    t12: str = "1i"
    t21: str = "-1i"
    t22: str = "0"

    def check(self):
        _require_roots(self.coupling())

    def coupling(self) -> pointint.CouplingMatrixT:
        return pointint.CouplingMatrixT(
            **{k: _parse_complex(v, k) for k, v in asdict(self).items()})


@dataclass(frozen=True)
class PointAngleParams(CouplingParams):
    """The coupling of point-angle, which must be PT-symmetric; point-angle
    finds no roots, so only det T + 4 is bounded."""

    def check(self):
        T = self.coupling()
        d = T.det + 4
        _require(cmath.isfinite(d), f"det T + 4 must be finite, got {d}")
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
        _require_budget(12 * rows, f"the {rows}-row sweep of {flags} "
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


def _batches(total: int, m: int) -> list:
    """Sizes of the consecutive batches that cover total samples, each
    batch holding at most BATCH_BYTES of m x m complex matrices a stack."""
    size = max(1, BATCH_BYTES // (16 * m * m))
    return [min(size, total - start) for start in range(0, total, size)]


def _worst(*residuals) -> float:
    """worst_residual over the entries of residual arrays."""
    return worst_residual(np.concatenate([np.ravel(r) for r in residuals]))


def _rank(stack: np.ndarray) -> int:
    """Rank of the matrices of a stack as vectors."""
    return int(np.linalg.matrix_rank(stack.reshape(len(stack), -1)))


def _elements_and_x(sig: cartan.ThetaSignature, rng, k: int, x_max: float):
    """k elements and k points in [-x_max, x_max], drawn in the order of k
    rounds of random_element(sig, rng) then rng.uniform(-x_max, x_max)."""
    z = np.empty((k, sig.n_draws))
    x = np.empty(k)
    for i in range(k):
        z[i] = rng.standard_normal(sig.n_draws)
        x[i] = rng.uniform(-x_max, x_max)
    return cartan.elements_from_draws(sig, z), x


def check_clifford_relations(rep: Report, cfg: VerifyConfig):
    grid = Grid1D(half_count=64, spacing=0.1)
    P = grid_operator(grid, "parity")
    R = grid_operator(grid, "sign")
    gens = cliffords.CliffordGenerators(m_plus=2, m_minus=0, generators=[P, R])
    out = cliffords.verify_clifford_relations(gens)
    rep.add("clifford/anticommutation_and_squares", out.max_residual, 0.0)
    _bool(rep, "clifford/span_dim_4", out.span_dim == 4)


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


def weak_form(A, grid: Grid1D, tol: float):
    """Gauge factorization residuals and weak form of H_g = (p - A)^2 + x^2."""
    fact = abelian.gauge_factorization(A, grid)
    H = abelian.build_scalar_hamiltonian(
        abelian.ScalarPotentials(A=A, V=lambda t: t**2), grid)
    return fact.residuals, abelian.verify_pseudo_hermiticity(H, fact, tol=tol)


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

    # weak-form pseudo-Hermiticity on the fine grid
    for name, A in (("alpha", lambda t: scalar.alpha + 0j),
                    ("beta", lambda t: 1j * BETA * t)):
        out = weak_form(A, scalar.grid(), 1e-8)[1]
        rep.add(f"abelian/pseudo_hermiticity_r1_{name}", out.r1, 1e-8)
        _bool(rep, f"abelian/naive_parity_residual_large_{name}",
              out.r2_abs > 0.1)
        rep.add(f"abelian/weighted_form_identity_{name}",
                out.weighted_form_residual, 1e-5)


def run_gauge_scalar(params: GaugeScalarParams) -> Report:
    rep = Report(command="gauge-scalar", seed=0, config=asdict(params))
    A = lambda x: params.alpha + 1j * params.beta * x
    residuals, out = weak_form(A, params.grid(), params.tol)
    for name, val in sorted(residuals.items()):
        rep.add(f"factorization/{name}", val, 1e-10)
    rep.add("pseudo_hermiticity/r1", out.r1, params.tol)
    rep.add("pseudo_hermiticity/weighted_form", out.weighted_form_residual, 1e-5)
    if abs(params.alpha) > 0:
        _bool(rep, "pseudo_hermiticity/naive_parity_r2_large", out.r2_abs > 0.1)
    rep.config.update(r1_abs=out.r1_abs, r2_abs=out.r2_abs, norm_H=out.norm_H)
    return rep


def _triple_residuals(sig: cartan.ThetaSignature, rng, samples: int):
    """Worst ternary-closure residual and largest binary escape, both
    relative to the scale, over sampled triples of g_Theta.  Triples are
    drawn a1, a2, a3 one triple after another, and checked in batches."""
    closure, escape = [], []
    for k in _batches(samples, sig.m):
        els = cartan.random_elements(sig, rng, (k, 3))
        out = cartan.lts_check(els[:, 0], els[:, 1], els[:, 2])
        closure.append(_worst(out.closure_residual / out.scale))
        escape.append(_worst(out.binary_escape / out.scale))
    return worst_residual(closure), worst_residual(escape)


def check_cartan_lts(rep: Report, cfg: VerifyConfig):
    rng = np.random.default_rng(cfg.seed)
    for (p, q) in ((2, 1), (2, 2), (3, 1)):
        sig = cartan.ThetaSignature(p=p, q=q)
        closure = _triple_residuals(sig, rng, LtsParams.samples)[0]
        rep.add(f"cartan/ternary_closure_p{p}q{q}", closure, 1e-12)

        # generic binary brackets escape g_Theta: [a_k, a_p] is i times a
        # real off-diagonal block, whose membership residual is
        # 2 max|[a_k, a_p]|.  It is measured against the bracket's own size:
        # for odd p the antisymmetric u is singular, so the bracket is small
        # whenever v lies near its kernel
        # each of 50 draws is v, then u, then w; rolled to the draw map's
        # order u, w, v, its v draws make a_k and the rest a_p
        z = np.roll(rng.standard_normal((50, sig.n_draws)), -p * q, axis=-1)
        on_v = np.arange(sig.n_draws) >= p * p + q * q
        ak = cartan.elements_from_draws(sig, np.where(on_v, z, 0.0))
        ap = cartan.elements_from_draws(sig, np.where(on_v, 0.0, z))
        out = cartan.lts_check(ak, ap, ap)
        bracket = max_abs(ak.matrix @ ap.matrix - ap.matrix @ ak.matrix)
        escapes = out.binary_escape / np.maximum(bracket, 1e-30)
        _bool(rep, f"cartan/binary_escape_p{p}q{q}", smallest(escapes) > 0.1)

        # dimension counts: ranks of the parts of the elements of unit draws
        units = cartan.cartan_split(
            cartan.elements_from_draws(sig, np.eye(sig.n_draws)))
        dim_k, dim_p = _rank(units.b), _rank(units.c)
        _bool(rep, f"cartan/dim_k_pq_p{p}q{q}", dim_k == p * q)
        _bool(rep, f"cartan/dim_p_p{p}q{q}",
              dim_p == p * (p - 1) // 2 + q * (q - 1) // 2)


def run_lts_check(params: LtsParams) -> Report:
    rep = Report(command="lts-check", seed=params.seed, config=asdict(params))
    closure, escape = _triple_residuals(
        params.signature(), np.random.default_rng(params.seed), params.samples)
    rep.add("lts/ternary_closure", closure, 1e-12)
    _bool(rep, "lts/binary_bracket_escapes", escape > 0.1)
    rep.config["max_binary_escape"] = escape
    return rep


def _exp_residual(comp: cartan.CartanComponents, sig: cartan.ThetaSignature,
                  x) -> np.ndarray:
    """Gap between the closed-form exponentials of b x, c x and expm, for
    each element of the stack comp at each x (which broadcasts against it).

    The noncompact half is no independent dual build: both sides are
    scipy's expm, of each block and of the block-diagonal c x, and differ
    only by the Pade order and scaling that each norm selects.  Yet it sets
    `cartan/closed_form_exponentials` (2.1e-12 at the default seed; the
    compact half 2.7e-15).  An independent eigh route for e^{iux} misses the
    absolute 1e-10 bound at verify-all --seed 3 (1.09e-10, 6.7e-15 of the
    largest entry), so it needs a relative bound first."""
    xm = np.asarray(x)[..., None, None]
    return np.maximum(
        max_abs(cartan.exp_compact(comp, sig, x) - expm(comp.b * xm)),
        max_abs(cartan.exp_noncompact(comp, sig, x) - expm(comp.c * xm)))


def check_closed_form_exponentials(rep: Report, cfg: VerifyConfig):
    rng = np.random.default_rng(cfg.seed + 1)
    x = np.linspace(-5, 5, 11)[:, None]   # each x against the 5 elements
    residuals = []
    for (p, q) in ((1, 1), (2, 1), (2, 2), (3, 1)):
        sig = cartan.ThetaSignature(p=p, q=q)
        comp = cartan.cartan_split(cartan.random_elements(sig, rng, 5))
        residuals.append(_exp_residual(comp, sig, x))
    rep.add("cartan/closed_form_exponentials", _worst(*residuals), 1e-10)

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
    rng = np.random.default_rng(cfg.seed + 2)
    sig = cartan.ThetaSignature(p=2, q=1)
    el, x = _elements_and_x(sig, rng, N_PARITY_DRAWS, 2.0)
    rep.add("cartan/parity_metric_relations_random",
            _worst(cartan.parity_relations_check(el, x).max_residual), 1e-10)

    el_r = _element_11(0.5)[1]
    sig_b = cartan.ThetaSignature(p=2, q=0)
    u = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    el_b = cartan.make_element(sig_b, u, np.zeros((2, 0)), np.zeros((0, 0)))
    x = np.array([0.5, 2.0])
    rep.add("cartan/parity_metric_relations_m2_examples",
            _worst(*(cartan.parity_relations_check(el, x).max_residual
                     for el in (el_r, el_b))), 1e-10)


def run_cartan(params: CartanParams) -> Report:
    sig = params.signature()
    rng = np.random.default_rng(params.seed)
    rep = Report(command="cartan", seed=params.seed, config=asdict(params))
    wick_res, exp_res, parity_res, polar_res = [], [], [], []
    for k in _batches(params.samples, sig.m):
        el, x = _elements_and_x(sig, rng, k, 3.0)
        comp = cartan.cartan_split(el)
        wick = cartan.wick_check(el)
        wick_res.append(_worst(
            wick.su_pq_residual, wick.antisymmetry_residual,
            wick.compact_block_residual, wick.noncompact_block_residual))
        exp_res.append(_worst(_exp_residual(comp, sig, x)))
        parity_res.append(
            _worst(cartan.parity_relations_check(el, x).max_residual))
        U = cartan.exp_compact(comp, sig, x) @ cartan.exp_noncompact(comp, sig, x)
        polar_res.append(_worst(*cartan.group_polar(U, sig).residuals.values()))
    rep.add("cartan/wick_membership", worst_residual(wick_res), 1e-12)
    rep.add("cartan/closed_form_exponentials", worst_residual(exp_res), 1e-10)
    rep.add("cartan/parity_metric_relations", worst_residual(parity_res), 1e-10)
    rep.add("cartan/group_polar_structure", worst_residual(polar_res), 1e-8)
    return rep


def matrix_example(gauge_alpha: float):
    """Theta, the gauge alpha sigma_2 and V = x^2 I of the matrix example."""
    sig, el = _element_11(-gauge_alpha)
    gauge = schrodinger.ConstantGauge(A=el.gauge_potential)  # = alpha sigma_2
    pot = schrodinger.MatrixPotential(m=2, V=lambda x: x**2 * np.eye(2))
    return sig, gauge, pot


def _matrix_records(rep: Report, example, grid: Grid1D, n_low: int,
                    match_name: str):
    """Symmetry audit and dual-build spectral records of the matrix example."""
    sig, gauge, pot = example
    audit = schrodinger.symmetry_audit(gauge, pot, sig, grid)
    rep.add("matrix/symmetry_audit", worst_residual(audit.values()), 1e-12)
    res = schrodinger.build_and_regauge(gauge, pot, grid)
    out = schrodinger.spectral_compare(res, sig, n_low=n_low)
    rep.add(match_name, out.max_match_dist, 5e-2)
    _bool(rep, "matrix/pairing_Hg", out.pairing_Hg != "unpaired")
    _bool(rep, "matrix/pairing_H", out.pairing_H != "unpaired")
    rep.add("matrix/parity_pseudo_hermiticity", out.parity_residual, 1e-6)
    return res, out


def check_matrix_schrodinger(rep: Report, cfg: VerifyConfig):
    params = SpectrumMatrixParams()
    example = matrix_example(params.gauge_alpha)
    res, coarse = _matrix_records(rep, example, params.grid(), params.n_low,
                                  "matrix/spectral_match_h0.05")
    # the literal similarity transform is spectrally exact
    sim = match_spectra(coarse.eigenvalues_Hg, eig(res.H_similar))
    rep.add("matrix/similarity_spectrum_exact", float(sim.max()), 1e-6)
    # the dense spectra are the oracle of the sparse lowest modes
    gaps = []
    for M, e in ((res.H_g, coarse.eigenvalues_Hg),
                 (res.H, coarse.eigenvalues_H)):
        dense, sparse = lowest_common(params.n_low, e,
                                      lambda k: lowest_modes(M, k))
        gaps.append(schrodinger.match_distance(dense, sparse))
    rep.add("matrix/lowest_modes_vs_dense_h0.05", worst_residual(gaps), 1e-10)
    fine_grid = replace(params, h=params.h / 2).grid()
    fine = schrodinger.lowest_mode_match(
        schrodinger.build_and_regauge(*example[1:], fine_grid), params.n_low)
    order = float(np.log2(coarse.max_match_dist / fine))
    _bool(rep, "matrix/convergence_order_ge_1.8", order >= 1.8)
    rep.config["matrix_convergence_order"] = order


def run_spectrum_matrix(params: SpectrumMatrixParams) -> Report:
    rep = Report(command="spectrum-matrix", seed=0, config=asdict(params))
    out = _matrix_records(rep, matrix_example(params.gauge_alpha),
                          params.grid(), params.n_low, "matrix/spectral_match")[1]
    rows = [[i, float(lg.real), float(lg.imag), float(lh.real), float(lh.imag),
             float(abs(lg - lh) / (1 + abs(lg)))]
            for i, (lg, lh) in enumerate(zip(*lowest_common(
                params.n_low, out.eigenvalues_Hg, out.eigenvalues_H)))]
    rep.tables.append(Table(
        name="spectrum",
        columns=["index", "re_lambda_Hg", "im_lambda_Hg",
                 "re_lambda_H", "im_lambda_H", "match_dist"],
        rows=rows))
    return rep


def _jc_model(params: JcParams):
    sig, el = _element_11(params.alpha)
    return sig, el, jaynes.LevelEnergies(omega=np.array([0.0, params.delta]))


def _jc_records(rep: Report, params: JcParams, grid_vs_fock_name: str):
    """PT symmetry of the Fock build and its agreement with the grid build."""
    sig, el, omega = _jc_model(params)
    H = jaynes.build_jc(jaynes.nilpotent_split(el), omega, params.n_max)
    rep.add("jc/pt_symmetry", jaynes.jc_pt_check(H, sig, params.n_max), 1e-12)
    eq = jaynes.jc_equivalence_check(el, omega, params.grid(), params.n_max)
    rep.add(grid_vs_fock_name, eq.max_dev, 5e-2)
    rep.add("jc/truncation_convergence", eq.truncation_shift, 1e-6)
    return eq


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

    eq = _jc_records(rep, params, "jc/grid_vs_fock_lowest6")
    rep.config.setdefault("jc_sign_convention", eq.sign_convention)


def run_jc(params: JcParams) -> Report:
    rep = Report(command="jc", seed=0, config=asdict(params))
    eq = _jc_records(rep, params, "jc/grid_vs_fock")
    rep.config["sign_convention"] = eq.sign_convention
    rows = [[i, float(lg.real), float(lg.imag), float(lf.real), float(lf.imag)]
            for i, (lg, lf) in enumerate(zip(eq.grid_eigenvalues,
                                             eq.fock_eigenvalues))]
    rep.tables.append(Table(
        name="levels",
        columns=["index", "re_lambda_grid", "im_lambda_grid",
                 "re_lambda_fock", "im_lambda_fock"],
        rows=rows))
    return rep


def check_point_angle(rep: Report, cfg: VerifyConfig):
    rng = np.random.default_rng(cfg.seed + 3)
    T0 = pointint.CouplingMatrixT(t11=1.2, t12=0.7j, t21=0.7j, t22=-0.4)
    sol0 = pointint.clifford_angle(T0)
    rep.add("point/phi_zero_when_t12_equals_t21", abs(sol0.phi), 0.0)

    T1 = pointint.CouplingMatrixT(t11=1, t12=1j, t21=-1j, t22=0)
    sol1 = pointint.clifford_angle(T1)
    rep.add("point/phi_reference_value",
            abs(sol1.phi - np.arctan2(4, 3)), 1e-13)
    rep.add("point/phi_defining_relation_residual", sol1.residual, 1e-13)

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


def run_point_angle(params: PointAngleParams) -> Report:
    T = params.coupling()
    sol = pointint.clifford_angle(T)
    rep = Report(command="point-angle", seed=0, config=asdict(params))
    rep.config.update(phi=sol.phi, degenerate=sol.degenerate)
    rep.add("point/defining_relation", sol.residual, 1e-13)
    samples = [
        pointint.PiecewiseFunction(1.0, 0.5, -0.3, 0.7),
        pointint.PiecewiseFunction(0.2 + 1j, -0.4, 1.1, -0.6 + 0.3j),
    ]
    bt = pointint.boundary_transform_check(T, sol, samples)
    rep.add("point/trace_identities", bt.trace_residual, 1e-12)
    rep.add("point/gamma_transform", bt.gamma_residual, 1e-12)
    rep.add("point/matrix_relation", bt.matrix_residual, 1e-12)
    rep.add("point/p_phi_selfadjointness",
            pointint.p_phi_selfadjointness_check(T, sol), 1e-12)
    return rep


def delta_well_grid_energy(t11: float) -> float:
    """Independent grid oracle: delta well as a narrow deep square well."""
    h = WELL_H
    n = int(round(2 * WELL_BOX / h))
    x = (np.arange(n) - (n - 1) / 2) * h
    V = np.where(np.abs(x) < WELL_WIDTH / 2, t11 / WELL_WIDTH, 0.0)
    diag = 2 / h**2 + V
    off = -np.ones(n - 1) / h**2
    vals = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                         select_range=(0, 0))[0]
    return float(vals[0])


def _sweep_records(rep: Report, params: PhaseDiagramParams, paired_name: str):
    """Conjugate pairing over a coupling sweep, and its phase-diagram table."""
    rows = pointint.pt_phase_sweep(*params.axes())
    _bool(rep, paired_name, all(r.classification != "unpaired" for r in rows))
    rep.tables.append(Table(
        name="phase_diagram",
        columns=["t11", "t22", "im_t12", "im_t21", "phi", "degenerate",
                 "n_bound", "e1_re", "e1_im", "e2_re", "e2_im",
                 "classification"],
        rows=[[r.t11, r.t22, r.im_t12, r.im_t21, r.phi, r.degenerate,
               r.n_bound, float(r.energies[0].real), float(r.energies[0].imag),
               float(r.energies[1].real), float(r.energies[1].imag),
               r.classification] for r in rows]))
    return rows


def check_point_spectrum(rep: Report, cfg: VerifyConfig):
    T = pointint.CouplingMatrixT(t11=-2.0, t12=0.0, t21=0.0, t22=0.0)
    states = pointint.bound_states(T)
    _bool(rep, "point/delta_well_single_state", len(states) == 1)
    rep.add("point/delta_well_energy", abs(states[0].energy - (-1.0)), 1e-12)
    rep.add("point/delta_well_domain_residual", states[0].domain_residual, 1e-10)
    rep.add("point/delta_well_grid_oracle",
            abs(delta_well_grid_energy(-2.0) - (-1.0)), 1e-3)

    rows = _sweep_records(rep, PhaseDiagramParams(),
                          "point/sweep_all_rows_paired")
    _bool(rep, "point/sweep_phi_zero_slice",
          all(abs(r.phi) < 1e-14 for r in rows
              if abs(r.im_t12 - r.im_t21) < 1e-14))


def run_point_spectrum(params: CouplingParams) -> Report:
    rep = Report(command="point-spectrum", seed=0, config=asdict(params))
    states = pointint.bound_states(params.coupling())
    rep.config["n_bound"] = len(states)
    rep.add("point/domain_residuals",
            worst_residual(s.domain_residual for s in states), 1e-10)
    if states:
        cls = pairing_check([s.energy for s in states], 1e-8)
        _bool(rep, "point/conjugate_pairing", cls != "unpaired")
        rep.config["classification"] = cls
    rep.tables.append(Table(
        name="bound_states",
        columns=["index", "kappa_re", "kappa_im", "e_re", "e_im",
                 "domain_residual"],
        rows=[[i, float(s.kappa.real), float(s.kappa.imag),
               float(s.energy.real), float(s.energy.imag), s.domain_residual]
              for i, s in enumerate(states)]))
    return rep


def run_phase_diagram(params: PhaseDiagramParams) -> Report:
    rep = Report(command="phase-diagram", seed=0, config=asdict(params))
    _sweep_records(rep, params, "sweep/conjugate_pairing")
    return rep


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


def run_verify_all(cfg: VerifyConfig | None = None) -> Report:
    cfg = cfg or VerifyConfig()
    rep = Report(command="verify-all", config=asdict(cfg), seed=cfg.seed)
    t0 = time.perf_counter()
    for check in ALL_CHECKS:
        t = time.perf_counter()
        check(rep, cfg)
        rep.timings[check.__name__] = time.perf_counter() - t
    rep.wall_time = time.perf_counter() - t0
    return rep


@dataclass(frozen=True)
class Command:
    params: type
    run: Callable[..., Report]
    help: str
    format: str = "json"   # default --format


COMMANDS = {
    "gauge-scalar": Command(GaugeScalarParams, run_gauge_scalar,
                            "Abelian gauge factorization and metric checks"),
    "cartan": Command(CartanParams, run_cartan, "gauge algebra structure checks"),
    "lts-check": Command(LtsParams, run_lts_check, "Lie-triple closure sampling"),
    "spectrum-matrix": Command(SpectrumMatrixParams, run_spectrum_matrix,
                               "matrix Schrodinger dual-build spectra", "both"),
    "jc": Command(JcParams, run_jc, "truncated-Fock two-level model checks"),
    "point-angle": Command(PointAngleParams, run_point_angle,
                           "point angle for one coupling matrix"),
    "point-spectrum": Command(CouplingParams, run_point_spectrum,
                              "point spectrum for one coupling matrix"),
    "phase-diagram": Command(PhaseDiagramParams, run_phase_diagram,
                             "sweep over coupling matrices", "csv"),
    "verify-all": Command(VerifyConfig, run_verify_all,
                          "run the full verification suite", "both"),
}
