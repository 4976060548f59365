"""Grid-convergence study for the dual-build matrix Schrodinger spectra.

Assembles the gauged operator H_g and the independently regauged
H = p^2 + e^{-Ax} V e^{Ax} on a sequence of halved spacings and reports
the worst relative eigenvalue mismatch over the lowest modes together
with the observed convergence order (expected around 2).  The lowest
modes come from certified sparse shift-invert (linalg.lowest_modes), so
no whole spectrum is computed.  It exits 1 if any observed order is below
MIN_ORDER, 2 with a one-line usage error on arguments that give no grid or
no order (fewer than two levels), else 0.

    python3 scripts/matrix_convergence_study.py --gauge-alpha 0.3
"""

import argparse
import math
import sys

import numpy as np

from ptgauge.cartan import ThetaSignature, make_element
from ptgauge.linalg import Grid1D
from ptgauge.schrodinger import (
    ConstantGauge,
    MatrixPotential,
    build_and_regauge,
    lowest_mode_match,
)

MIN_ORDER = 1.8   # the bound of the test suite and the benchmark


def grids(args) -> list:
    """The grids of the study, one a level; ValueError on unusable arguments."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, "
                             f"got {value}")
    if args.levels < 2:
        raise ValueError(f"--levels must be >= 2 to observe an order, "
                         f"got {args.levels}")
    if args.n_low < 1:
        raise ValueError(f"--n-low must be >= 1, got {args.n_low}")
    if not (args.h0 > 0 and args.box > 0):
        raise ValueError(f"--h0 and --box must be positive, got {args.h0} "
                         f"and {args.box}")
    return [Grid1D.from_box(args.box, args.h0 / 2**level)
            for level in range(args.levels)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gauge-alpha", type=float, default=0.3)
    ap.add_argument("--box", type=float, default=6.0)
    ap.add_argument("--h0", type=float, default=0.2)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--n-low", type=int, default=12)
    args = ap.parse_args(argv)
    try:
        study_grids = grids(args)
    except ValueError as exc:   # the rule of ptgauge's command line
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    sig = ThetaSignature(1, 1)
    el = make_element(sig, np.zeros((1, 1)), [[-args.gauge_alpha]],
                      np.zeros((1, 1)))
    gauge = ConstantGauge(A=el.gauge_potential)
    pot = MatrixPotential(m=2, V=lambda x: x**2 * np.eye(2))

    print(f"# gauge alpha = {args.gauge_alpha}, box = {args.box}, "
          f"lowest {args.n_low} modes")
    print(f"{'h':>8} {'max match dist':>15} {'order':>7}")
    prev = None
    orders = []
    for grid in study_grids:
        h = grid.spacing
        res = build_and_regauge(gauge, pot, grid)
        dist = lowest_mode_match(res, args.n_low)
        if prev is not None:
            orders.append(np.log2(prev / dist))
        order = f"{orders[-1]:7.2f}" if prev is not None else ""
        print(f"{h:8.4f} {dist:15.3e} {order:>7}")
        prev = dist
    # a NaN order fails as well
    if not all(order >= MIN_ORDER for order in orders):
        print(f"FAIL: an observed order is below {MIN_ORDER}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
