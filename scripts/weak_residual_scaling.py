"""Scaling of the weak pseudo-Hermiticity residual with grid spacing.

For the scalar gauge A = alpha + i beta x the interior weak residual r1
of eta H - H^H eta should drop at fourth order in h (two orders from the
stencil, two from testing against smooth vectors).  This script tabulates
r1 over a dyadic sequence of spacings and prints the observed orders.
It accepts a level exactly when `ptgauge gauge-scalar` accepts the same
alpha, beta and box at that spacing, and checks every level before it
runs one.  It exits 1 if any observed order is below MIN_ORDER, 2 with a
one-line usage error on arguments gauge-scalar rejects at some level or
on fewer than two levels (no order), else 0.

    python3 scripts/weak_residual_scaling.py --alpha 1.0 --beta 0.3
"""

import argparse
import sys

import numpy as np

from ptgauge.verification import GaugeScalarParams, weak_form

MIN_ORDER = 3.5   # the bound of the test suite and the benchmark


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--beta", type=float, default=0.3)
    ap.add_argument("--box", type=float, default=8.0)
    ap.add_argument("--h0", type=float, default=0.1,
                    help="coarsest spacing; halved at each step")
    ap.add_argument("--levels", type=int, default=5)
    args = ap.parse_args(argv)
    try:
        if args.levels < 2:
            raise ValueError(f"--levels must be >= 2 to observe an order, "
                             f"got {args.levels}")
        levels = [GaugeScalarParams(args.alpha, args.beta, args.box,
                                    h=args.h0 / 2**level)
                  for level in range(args.levels)]
    except ValueError as exc:   # the rule of ptgauge's command line
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    A = lambda x: args.alpha + 1j * args.beta * x

    print(f"# A = {args.alpha} + {args.beta} i x on |x| <= {args.box}")
    print(f"{'h':>10} {'r1':>12} {'r1_abs':>12} {'order':>7}")
    prev = None
    orders = []
    for params in levels:
        out = weak_form(A, params.grid())[1]
        if prev is not None:
            orders.append(np.log2(prev / out.r1))
        order = f"{orders[-1]:7.2f}" if prev is not None else ""
        print(f"{params.h:10.5f} {out.r1:12.3e} {out.r1_abs:12.3e} {order:>7}")
        prev = out.r1
    # a NaN order fails as well
    if not all(order >= MIN_ORDER for order in orders):
        print(f"FAIL: an observed order is below {MIN_ORDER}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
