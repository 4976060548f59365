"""One repetition of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T
        --result FILE --work-dir DIR [--setup-only | --trace]

It runs from the root of a checkout, with PYTHONPATH naming its src/.

T is the parent's `time.monotonic()` just before it started this process,
so `setup_s` covers interpreter start, the imports of numpy, scipy and
ptgauge, and building the inputs.  The worker writes one JSON object to
FILE: set-up and body times, `ru_maxrss` of this process, the gates, a
digest of the outputs, the environment, and with --trace the per-layer
metrics of the traced body.
"""

import argparse
import json
import os
import resource
import sys
import time


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.setup(args.seed, args.work_dir)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "package": workloads.package_dir(),
              "env": environment()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracer_mod

            with open("BENCHMARK.json") as fh:
                names = [m["name"] for m in json.load(fh)["per_layer"]]
            # trace.* metrics are computed by run.py from two repetitions
            tracer = tracer_mod.Tracer(n for n in names if not n.startswith("trace."))
            tracer.install()
        t0 = time.perf_counter()
        outcome = workload.body(inputs)
        result["wall_s"] = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux and covers this process only
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["gates"] = [
            {"name": g.name, "value": g.value, "limit": g.limit, "kind": g.kind,
             "passed": g.passed, "graded": g.graded}
            for g in outcome.gates
        ]
        result["digest"] = outcome.digest
        if tracer is not None:
            result["layers"] = tracer.metrics()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
