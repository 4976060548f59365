"""The four benchmark workloads: set-up from a seed, a timed body, and gates.

Each workload has `setup(seed, out_dir)`, which builds every input from the
seed, and `body(inputs)`, the timed part, which returns an `Outcome`.  The
bodies call the library only through module attributes (`abelian.x(...)`,
never a name bound at import time), so the tracer in `tracer.py` sees every
call it wraps.

Gates take their tolerances from the library's own suite
(`ptgauge.verification`) and never loosen them.  A gate is "graded" when it
is an upper bound on a residual with a positive tolerance; only graded gates
enter `max_margin`.  Booleans, lower bounds and exact (tolerance 0) gates
count toward the pass ratio but not toward the margin.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

import ptgauge
from ptgauge import abelian, cartan, cli, cliffords, jaynes, linalg, pointint, \
    schrodinger

BOX = 8.0


@dataclass(frozen=True)
class Gate:
    name: str
    value: float
    limit: float
    kind: str  # "le": value <= limit, "ge": value >= limit

    @property
    def passed(self) -> bool:
        ok = self.value <= self.limit if self.kind == "le" else self.value >= self.limit
        return bool(np.isfinite(self.value) and ok)

    @property
    def graded(self) -> bool:
        return self.kind == "le" and self.limit > 0 and self.limit != 0.5


def boolean(name: str, ok: bool) -> Gate:
    """The suite's boolean encoding: residual 0 (ok) or 1, tolerance 0.5."""
    return Gate(name, 0.0 if ok else 1.0, 0.5, "le")


@dataclass
class Outcome:
    gates: list = field(default_factory=list)
    digest: str = ""   # hash of the outputs; equal across repetitions


def _digest(values) -> str:
    """Hash of floats by their exact bits, so equal digests mean equal outputs."""
    text = ",".join(float(v).hex() for v in np.ravel(np.asarray(values, dtype=float)))
    return hashlib.sha256(text.encode()).hexdigest()


def _worst(residuals) -> float:
    """Largest residual; NaN if any is NaN (Python's max() would skip it)."""
    return float(np.max(residuals))


def _order(coarse: float, fine: float) -> float:
    return float(np.log2(coarse / fine))


# --------------------------------------------------------------------------
# verify_all: the CLI headline, in process, report emission included.

class VerifyAll:
    n_records = 58

    def setup(self, seed: int, out_dir: str):
        # The shipped command, at the suite's default seed, as the acceptance
        # test runs it.  The benchmark seed is not passed on: at about one
        # seed in fifteen two sampled records of the suite fail (see "Known
        # failures" in METRICS.md), and a workload must not fail by its seed.
        return ["verify-all", "--out-dir", out_dir], out_dir

    def body(self, inputs) -> Outcome:
        argv, out_dir = inputs
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        with open(os.path.join(out_dir, "verify-all.json")) as fh:
            records = json.load(fh)["records"]
        out = Outcome()
        out.gates.append(Gate("exit_code", float(rc), 0.0, "le"))
        out.gates.append(Gate("record_count", float(len(records)),
                              float(self.n_records), "ge"))
        for r in records:
            out.gates.append(Gate(r["name"], float(r["residual"]),
                                  float(r["tolerance"]), "le"))
        h = hashlib.sha256()
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
        out.digest = h.hexdigest()
        return out


# --------------------------------------------------------------------------
# scalar_refine: scripts/weak_residual_scaling.py for the two scalar gauges.

class ScalarRefine:
    spacings = (0.05, 0.025, 0.0125, 0.00625)   # n = 320 ... 2560
    # beta is fixed: r1 at n = 2560 grows about fourfold per 0.05 of beta
    # (2.2e-9 at 0.3, 9.1e-9 at 0.35), so a seeded beta would move the
    # margin by more than the bound.  alpha in [0.9, 1.1] keeps every gate.
    beta = 0.3
    # the library default; across draw seeds the weighted-form residual at
    # n = 2560 ranges over 1.4e-6 ... 4.5e-6, so the draw stays fixed as well
    weighted_form_seed = 7

    def setup(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(0.9, 1.1))
        beta = self.beta
        cases = (
            ("alpha", lambda t: alpha + 0j),
            ("beta", lambda t: 1j * beta * t),
        )
        grids = [linalg.Grid1D.from_box(BOX, h) for h in self.spacings]
        return cases, grids

    def body(self, inputs) -> Outcome:
        cases, grids = inputs
        out = Outcome()
        values = []
        for name, A in cases:
            pots = abelian.ScalarPotentials(A=A, V=lambda t: t**2)
            r1 = []
            for grid in grids:
                fact = abelian.gauge_factorization(A, grid)
                H = abelian.build_scalar_hamiltonian(pots, grid)
                rep = abelian.verify_pseudo_hermiticity(
                    H, fact, tol=1e-8, seed=self.weighted_form_seed)
                r1.append(rep.r1)
                values += [rep.r1, rep.r2_abs, rep.weighted_form_residual]
                out.gates.append(Gate(f"{name}/n{grid.size}/naive_parity_r2_abs",
                                      rep.r2_abs, 0.1, "ge"))
            out.gates.append(Gate(f"{name}/r1_finest", rep.r1, 1e-8, "le"))
            out.gates.append(Gate(f"{name}/weighted_form_finest",
                                  rep.weighted_form_residual, 1e-5, "le"))
            for k in range(len(r1) - 1):
                out.gates.append(Gate(f"{name}/order_{k}", _order(r1[k], r1[k + 1]),
                                      3.5, "ge"))
        out.digest = _digest(values)
        return out


# --------------------------------------------------------------------------
# spectral_refine: scripts/matrix_convergence_study.py plus the JC dual build.

class SpectralRefine:
    spacings = (0.1, 0.05, 0.025)   # matrix n = 320, 640, 1280
    jc_nmax = (8, 12)
    jc_h = 0.045

    def setup(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        gauge_alpha = float(rng.uniform(0.25, 0.35))
        # the JC deviation sets max_margin here and grows ~0.1 % per 0.001 of alpha
        jc_alpha = float(rng.uniform(0.28, 0.32))
        jc_delta = float(rng.uniform(0.4, 0.6))
        sig = cartan.ThetaSignature(p=1, q=1)
        el = cartan.make_element(sig, np.zeros((1, 1)), [[-gauge_alpha]],
                                 np.zeros((1, 1)))
        gauge = schrodinger.ConstantGauge(A=el.gauge_potential)
        pot = schrodinger.MatrixPotential(m=2, V=lambda x: x**2 * np.eye(2))
        grids = [linalg.Grid1D.from_box(BOX, h) for h in self.spacings]
        jc_el = cartan.make_element(sig, np.zeros((1, 1)), [[jc_alpha]],
                                    np.zeros((1, 1)))
        omega = jaynes.LevelEnergies(omega=np.array([0.0, jc_delta]))
        jc_grids = [linalg.Grid1D.from_box(np.sqrt(2 * n) + 4.2, self.jc_h)
                    for n in self.jc_nmax]
        return sig, gauge, pot, grids, jc_el, omega, jc_grids

    def body(self, inputs) -> Outcome:
        sig, gauge, pot, grids, jc_el, omega, jc_grids = inputs
        out = Outcome()
        values = []
        dists = []
        for grid in grids:
            res = schrodinger.build_and_regauge(gauge, pot, grid)
            cmp = schrodinger.spectral_compare(res, sig, n_low=16)
            n = grid.size * 2
            dists.append(cmp.max_match_dist)
            values += [cmp.max_match_dist, cmp.parity_residual]
            out.gates.append(Gate(f"n{n}/spectral_match", cmp.max_match_dist,
                                  5e-2, "le"))
            out.gates.append(Gate(f"n{n}/parity_pseudo_hermiticity",
                                  cmp.parity_residual, 1e-6, "le"))
            out.gates.append(boolean(f"n{n}/pairing_Hg",
                                     cmp.pairing_Hg != "unpaired"))
            out.gates.append(boolean(f"n{n}/pairing_H",
                                     cmp.pairing_H != "unpaired"))
        for k in range(len(dists) - 1):
            out.gates.append(Gate(f"order_{k}", _order(dists[k], dists[k + 1]),
                                  1.8, "ge"))
        for n_max, grid in zip(self.jc_nmax, jc_grids):
            eq = jaynes.jc_equivalence_check(jc_el, omega, grid, n_max)
            values += [eq.max_dev, eq.truncation_shift]
            out.gates.append(Gate(f"jc_nmax{n_max}/grid_vs_fock", eq.max_dev,
                                  5e-2, "le"))
            out.gates.append(Gate(f"jc_nmax{n_max}/truncation", eq.truncation_shift,
                                  1e-6, "le"))
        out.digest = _digest(values)
        return out


# --------------------------------------------------------------------------
# algebra_sampling: many tiny problems, bound by per-call overhead.

class AlgebraSampling:
    signatures = ((2, 1), (2, 2), (3, 1), (3, 2))
    n_triples = 600          # per signature
    n_parity_draws = 250     # per signature
    n_exp_elements = 10      # per signature, each at 11 points
    sweep_points = 9         # per axis, 9^4 couplings
    n_angles = 200
    involution_half_count = 32   # grid size 64
    # Every residual here is at rounding level, and the parity and exponential
    # residuals are absolute, growing like e^{|a| |x|}.  At the suite's scale
    # 1 a (3, 2) draw came within 21 % of the 1e-10 parity tolerance and the
    # worst draw moved max_margin tenfold between seeds.  At 0.25 the sampled
    # residuals stay below the one-ulp P_phi square (2.2e-16 against 1e-12),
    # which then sets max_margin on every seed.
    element_scale = 0.25

    def setup(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        sigs = [cartan.ThetaSignature(p=p, q=q) for p, q in self.signatures]
        k = self.sweep_points
        axes = (np.linspace(-2, 1, k), np.linspace(-1, 1, k),
                np.linspace(-1.5, 1.5, k), np.linspace(-1.5, 1.5, k))
        angles = rng.uniform(-3.0, 3.0, self.n_angles)
        grid = linalg.Grid1D(half_count=self.involution_half_count, spacing=0.1)
        return rng, sigs, axes, angles, grid

    def body(self, inputs) -> Outcome:
        rng, sigs, axes, angles, grid = inputs
        out = Outcome()
        values = []
        for sig in sigs:
            tag = f"p{sig.p}q{sig.q}"
            closure = []
            for _ in range(self.n_triples):
                a1, a2, a3 = (cartan.random_element(sig, rng, self.element_scale)
                              for _ in range(3))
                rep = cartan.lts_check(a1, a2, a3)
                closure.append(rep.closure_residual / rep.scale)

            parity = []
            for _ in range(self.n_parity_draws):
                el = cartan.random_element(sig, rng, self.element_scale)
                x = float(rng.uniform(-2, 2))
                parity.append(cartan.parity_relations_check(el, x).max_residual)

            exponentials = []
            for _ in range(self.n_exp_elements):
                comp = cartan.cartan_split(
                    cartan.random_element(sig, rng, self.element_scale))
                for x in np.linspace(-5, 5, 11):
                    Uk = cartan.exp_compact(comp, sig, float(x))
                    Up = cartan.exp_noncompact(comp, sig, float(x))
                    exponentials += [np.abs(Uk - linalg.expm(comp.b * x)).max(),
                                     np.abs(Up - linalg.expm(comp.c * x)).max()]

            for name, residuals, tol in (("ternary_closure", closure, 1e-12),
                                         ("parity_metric_relations", parity, 1e-10),
                                         ("closed_form_exponentials", exponentials,
                                          1e-10)):
                out.gates.append(Gate(f"{tag}/{name}", _worst(residuals), tol, "le"))
                values += residuals

        rows = pointint.pt_phase_sweep(*axes)
        out.gates.append(boolean("sweep/all_rows_paired",
                                 all(r.classification != "unpaired" for r in rows)))
        out.gates.append(boolean("sweep/phi_zero_slice",
                                 all(abs(r.phi) < 1e-14 for r in rows
                                     if abs(r.im_t12 - r.im_t21) < 1e-14)))
        values += [r.phi for r in rows]

        P = linalg.grid_operator(grid, "parity")
        R = linalg.grid_operator(grid, "sign")
        eye = np.eye(grid.size)
        squares, hermitian = [], []
        for phi in angles:
            M = cliffords.rotated_involution(P, R, float(phi)).matrix
            squares.append(np.abs(M @ M - eye).max())
            hermitian.append(np.abs(M - M.conj().T).max())
        out.gates.append(Gate("rotated_involution/squares_to_identity",
                              _worst(squares), 1e-12, "le"))
        out.gates.append(Gate("rotated_involution/hermitian", _worst(hermitian),
                              1e-12, "le"))
        values += squares + hermitian
        out.digest = _digest(values)
        return out


WORKLOADS = {
    "verify_all": VerifyAll,
    "scalar_refine": ScalarRefine,
    "spectral_refine": SpectralRefine,
    "algebra_sampling": AlgebraSampling,
}


def package_dir() -> str:
    return os.path.dirname(os.path.abspath(ptgauge.__file__))
