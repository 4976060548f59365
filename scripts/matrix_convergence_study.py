"""Grid-convergence study for the dual-build matrix Schrodinger spectra.

Assembles the gauged operator H_g and the independently regauged
H = p^2 + e^{-Ax} V e^{Ax} of the `ptgauge spectrum-matrix` example on a
sequence of halved spacings and reports the worst relative eigenvalue
mismatch over the lowest modes together with the observed convergence
order (expected around 2).  The lowest modes come from
linalg.lowest_modes, which answers every cut of this Hermitian band
example: by certified sparse shift-invert where a request certifies it,
so no whole spectrum is computed, else by eig's band route.  It accepts
a level exactly when spectrum-matrix accepts the same gauge-alpha, box
and n-low at that spacing, and checks every level before it runs one.
It exits 1 if any observed order is below MIN_ORDER, 2 with a one-line
usage error on arguments it rejects at some level or on fewer than two
levels (no order), else 0.

    python3 scripts/matrix_convergence_study.py --gauge-alpha 0.3
"""

import argparse
import sys

import numpy as np

from ptgauge.schrodinger import build_and_regauge, lowest_mode_match
from ptgauge.verification import SpectrumMatrixParams, matrix_example

MIN_ORDER = 1.8   # the bound of the test suite and the benchmark


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gauge-alpha", type=float, default=0.3)
    ap.add_argument("--box", type=float, default=6.0)
    ap.add_argument("--h0", type=float, default=0.2)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--n-low", type=int, default=12)
    args = ap.parse_args(argv)
    try:
        if args.levels < 2:
            raise ValueError(f"--levels must be >= 2 to observe an order, "
                             f"got {args.levels}")
        levels = [SpectrumMatrixParams(args.gauge_alpha, args.box,
                                       h=args.h0 / 2**level, n_low=args.n_low)
                  for level in range(args.levels)]
    except ValueError as exc:   # the rule of ptgauge's command line
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    _, gauge, pot = matrix_example(args.gauge_alpha)
    dists = [lowest_mode_match(build_and_regauge(gauge, pot, params.grid()),
                               args.n_low) for params in levels]

    print(f"# gauge alpha = {args.gauge_alpha}, box = {args.box}, "
          f"lowest {args.n_low} modes")
    print(f"{'h':>8} {'max match dist':>15} {'order':>7}")
    prev = None
    orders = []
    for params, dist in zip(levels, dists):
        if prev is not None:
            orders.append(np.log2(prev / dist))
        order = f"{orders[-1]:7.2f}" if prev is not None else ""
        print(f"{params.h:8.4f} {dist:15.3e} {order:>7}")
        prev = dist
    # a NaN order fails as well
    if not all(order >= MIN_ORDER for order in orders):
        print(f"FAIL: an observed order is below {MIN_ORDER}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
