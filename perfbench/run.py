"""ptgauge benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every repetition of the workload runs
in a fresh worker process (perfbench/worker.py) with the checkout's src/ on
PYTHONPATH and BLAS pinned to BLAS_THREADS threads; the next one starts only
after the previous one has ended.  BENCHMARK.json names the workloads and
metrics; perfbench/METRICS.md explains them.

--trace 0  SETUP_PROBES set-up-only workers, then repetitions until S seconds
           have passed (at least MIN_REPS).  Prints the end-to-end metrics.
--trace 1  one untraced and one traced repetition.  Prints the per-layer
           metrics of the traced one, and the tracing overhead as the
           difference of the two wall times.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exit code 2, and no
result, when the checkout or the arguments are not usable.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = 1      # at most nproc; one thread keeps runs on a shared host steady
SETUP_PROBES = 3
# The host's speed drifts by up to 1.6x over tens of seconds, so the shorter
# workloads take medians over more repetitions.  Every other workload runs
# once; a traced run always has two, so reports are byte-compared there.
MIN_REPS = {"spectral_refine": 2, "algebra_sampling": 8}
DEADLINE_S = 170      # a run must end within 180 s
# per-layer stats derived from sizes, not clocks (see tracer.py); they repeat exactly
COMPUTED_STATS = ("n_max", "sum_n3", "out_bytes", "bytes")


class RunError(Exception):
    pass


def load_benchmark(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "ptgauge", "__init__.py")):
        raise RunError(f"no ptgauge sources under {root}/src; run from a checkout root")
    with open(path) as fh:
        return json.load(fh)


class Client:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, root: str, workload: str, seed: int, run_dir: str):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.started = time.monotonic()
        self.count = 0
        self.errors = []
        self.results = []
        pythonpath = os.path.join(root, "src")
        if os.environ.get("PYTHONPATH"):
            pythonpath += os.pathsep + os.environ["PYTHONPATH"]
        threads = str(BLAS_THREADS)
        self.env = dict(os.environ, PYTHONPATH=pythonpath,
                        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def run(self, *flags):
        """One worker; returns its result dict, or None if it failed."""
        self.count += 1
        work_dir = os.path.join(self.run_dir, f"w{self.count}")
        os.mkdir(work_dir)
        result_path = os.path.join(self.run_dir, f"w{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--result", result_path, "--work-dir", work_dir, *flags]
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=self.root,
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append(f"worker {self.count} timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no message)"]
            self.errors.append(f"worker {self.count} exited {proc.returncode}: {tail[0]}")
            sys.stderr.write(proc.stderr)
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        self.results.append(result)
        expected = os.path.join(self.root, "src", "ptgauge")
        if os.path.realpath(result["package"]) != os.path.realpath(expected):
            raise RunError(f"worker imported ptgauge from {result['package']}, "
                           f"not {expected}")
        return result


def tally(reps: list, errors: list):
    """(attempted, failed, max_margin) over every gate of every repetition."""
    gates = [g for r in reps for g in r["gates"]]
    attempted = len(gates) + len(errors)
    failed = sum(not g["passed"] for g in gates) + len(errors)
    if len(reps) >= 2:
        # outputs of one seed must not depend on the repetition or on tracing
        attempted += 1
        failed += len({r["digest"] for r in reps}) != 1
    margins = [g["value"] / g["limit"] for g in gates if g["graded"]]
    return attempted, failed, max(margins, default=0.0)


def measure(client: Client, seconds: float):
    """Set-up probes, then repetitions; returns (repetitions, timing metrics)."""
    for _ in range(SETUP_PROBES):
        client.run("--setup-only")
    started = time.monotonic()
    reps = []
    min_reps = MIN_REPS.get(client.workload, 1)
    while len(reps) < min_reps or time.monotonic() - started < seconds:
        rep = client.run()
        if rep is None:
            break
        reps.append(rep)
    if not reps:
        return reps, {}
    return reps, {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in client.results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def measure_traced(client: Client):
    """One untraced and one traced repetition; returns (repetitions, layer metrics)."""
    plain = client.run()
    traced = client.run("--trace") if plain is not None else None
    if traced is None:
        return [r for r in (plain,) if r is not None], {}
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return [plain, traced], metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    try:
        bench = load_benchmark(root)
    except (RunError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be a non-negative integer", file=sys.stderr)
        return 2
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    run_root = os.path.join(root, ".perfbench_run")
    os.makedirs(run_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=run_root)
    client = Client(root, args.workload, args.seed, run_dir)
    try:
        if args.trace:
            reps, values = measure_traced(client)
        else:
            reps, values = measure(client, args.seconds)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not os.listdir(run_root):
            os.rmdir(run_root)

    for err in client.errors:
        print(f"error: {err}", file=sys.stderr)
    if not values:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    attempted, failed, margin = tally(reps, client.errors)
    if not args.trace:
        values["pass_ratio"] = (attempted - failed) / attempted
        values["max_margin"] = margin
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not match "
                         "BENCHMARK.json")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} elapsed={client.elapsed():.1f}s")
    print("# env " + json.dumps(client.results[0]["env"], sort_keys=True))
    print("# wall_s per repetition: " + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    print("# setup_s per worker: " + " ".join(f"{r['setup_s']:.3f}" for r in client.results))
    for name in units:
        label = "computed" if name.rsplit(".", 1)[-1] in COMPUTED_STATS else ""
        print(f"{name:58s} {values[name]:>16.6g} {units[name]:6s} {label}".rstrip())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
