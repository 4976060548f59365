"""Summary statistics for a point-interaction coupling sweep.

Runs the PT phase sweep over a grid of coupling matrices and prints, per
rotation-angle bin, how many cells sit in the exact phase (all bound-state
energies real) versus the broken phase (complex-conjugate pairs).  It
sweeps once, on the axes `ptgauge phase-diagram` parses from the same
ranges; that command writes the full per-cell table.

It exits 1 unless the exact and broken counts sum to the sweep size (no
cell is unpaired) and the angle bins, the last one closed at pi/2, hold
every cell; 2 with a one-line usage error on a sweep that phase-diagram
rejects; else 0.

    python3 scripts/point_phase_summary.py --resolution 7
"""

import argparse
import sys
from collections import Counter

import numpy as np

from ptgauge.pointint import CLASSIFICATIONS, pt_phase_sweep
from ptgauge.verification import PhaseDiagramParams


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--resolution", type=int, default=7,
                    help="points per sweep axis")
    ap.add_argument("--coupling-max", type=float, default=3.0)
    args = ap.parse_args(argv)

    n = args.resolution
    c = args.coupling_max
    axis = f"{-c}:{c}:{n}"
    try:
        params = PhaseDiagramParams(axis, axis, axis, axis)   # checks n and c
    except ValueError as exc:   # the rule of ptgauge's command line
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    sweep = pt_phase_sweep(*params.axes())
    phi = sweep.phi
    cls = np.asarray(CLASSIFICATIONS)[sweep.classification]

    by_class = Counter(cls.tolist())
    print(f"# {len(sweep)} cells, classification counts: {dict(by_class)}")

    edges = np.linspace(-np.pi / 2, np.pi / 2, 9)
    print(f"{'phi bin':>22} {'cells':>7} {'all real':>9} {'conj pairs':>11}")
    binned = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        last = hi == edges[-1]
        cells = ((lo <= phi) & (phi < hi)) | (last & (phi == hi))
        n_cells = np.count_nonzero(cells)
        binned += n_cells
        if not n_cells:
            continue
        real = np.count_nonzero(cells & (cls == "all_real"))
        broken = np.count_nonzero(cells & (cls == "conjugate_paired"))
        print(f"[{lo:8.4f}, {hi:8.4f}{']' if last else ')'} {n_cells:7d} "
              f"{real:9d} {broken:11d}")
    n_deg = np.count_nonzero(sweep.degenerate)
    print(f"# degenerate-angle cells: {n_deg}")

    failed = False
    exact, broken = by_class["all_real"], by_class["conjugate_paired"]
    if exact + broken != n**4:
        print(f"FAIL: {exact} exact + {broken} broken cells is not the "
              f"sweep size {n**4}")
        failed = True
    if binned != n**4:
        print(f"FAIL: the angle bins hold {binned} of {n**4} cells")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
