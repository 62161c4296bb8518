"""Benchmark of spherepde: Green-function tabulation, pointwise evaluation
and the spectral solve pipeline.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload green_table --seed 1 --seconds 30 --trace 0

Runs the workload (each workload in turn with --workload all) in fresh
interpreters (bench/worker.py) against the spherepde sources in ./src, with
BLAS pinned to one thread.  Prints an environment record, one line per
metric with its unit, and as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (whose spans go to
.bench_out/).  Each workload has DEADLINE_S seconds; the exit code is 0
only if every workload produced a result.

setup_s is the median over SETUP_RUNS fresh interpreters of the time from
starting the interpreter to the first timed operation; one of them is the
process that then runs the timed phase.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from metrics import END_TO_END, PER_LAYER

WORKLOADS = ("green_table", "green_pointwise", "spectral_pipeline")
SETUP_RUNS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_sha(root):
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env(root):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # glibc raises its mmap threshold as large blocks are freed, after which
    # arrays of up to 32 MB come from a heap whose fragmentation, and so peak
    # RSS, depends on the order of the operations.  Fixing the threshold at
    # its initial 128 KiB returns every large array to the system on free.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def run_worker(workload, args, env, src, deadline, extra=()):
    """Run bench/worker.py; returns (its JSON result, seconds from start to its first op)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale, *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    if result["spherepde"] != src:
        raise BenchError(f"worker imported spherepde from {result['spherepde']}, not {src}")
    return result, result["first_op"] - start


def run_workload(w, args, root):
    """Set up w SETUP_RUNS times, run its timed phase, print its metrics."""
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    src = str((root / "src" / "spherepde").resolve())
    extra = ()
    if args.trace:
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        extra = ("--spans", str(out_dir / f"spans-{w}-seed{args.seed}.json"))
    setups = [run_worker(w, args, env, src, deadline, ("--setup-only",))[1]
              for _ in range(SETUP_RUNS - 1)]
    result, setup = run_worker(w, args, env, src, deadline, extra)
    setups.append(setup)

    record = {"threads": {var: env[var] for var in THREAD_VARS},
              "malloc_mmap_threshold": env["MALLOC_MMAP_THRESHOLD_"], "git_sha": git_sha(root),
              **result["versions"], "nproc": os.cpu_count(),
              "ops_per_pass": result["ops"], "pass_sums_s": result["pass_sums"],
              "setups_s": setups}
    print(f"# env {json.dumps(record)}")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"{w} fail_ratio {fail_ratio:.6g} 1 ({result['failed']} failed of "
          f"{result['attempted']} attempted: {result['raised']} raised "
          f"{result['errors']}, {result['wrong']} wrong, {result['unexpected']} unexpected)")
    if args.trace:
        metrics = {name: {"value": result["layers"][name][0], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {"setup_s": median(setups), "wall_s": result["wall_s"],
                  "op_p50_s": result["op_p50_s"], "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: a few small inputs, for the benchmark's own tests")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spherepde" / "__init__.py").is_file():
        print("bench: run from the root of a spherepde source checkout "
              "(src/spherepde not found)", file=sys.stderr)
        return 2
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            run_workload(w, args, root)
        except BenchError as exc:
            print(f"bench: {w}: {exc}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
