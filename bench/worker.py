"""One benchmark process: set up one workload, run its timed phase, check it.

Started by run.py in a fresh interpreter, so that its set-up time and peak
resident memory belong to this workload alone.  Prints one JSON object as
its last line of standard output.

Set-up is import, seeded input generation and one warm-up operation.  The
timed phase then repeats passes over the seeded input set, one operation
after another (a closed loop with one client), and stops starting passes
once the next one is predicted to end after ``--seconds``, but runs at
least two passes (with ``--trace 1`` untraced and traced passes alternate,
starting untraced).  Each operation is timed on its own; its outputs are
checked right after it, outside its timing, and then dropped, so that peak
memory does not depend on the order of the operations.

wall_s, the time of one pass over the seeded input set, is the sum over the
operations of each one's median latency across the passes, which is less
sensitive than one pass's wall time to bursts of machine speed that cover
part of the run.  op_p50_s is the median over the operations of the same
per-operation medians.
"""

import argparse
import json
import os
import resource
import sys
import time
from statistics import median

import numpy as np
import scipy

import spherepde
from green_workloads import GreenPointwise, GreenTable
from harness import Tally, Tracer
from spectral_workload import SpectralPipeline

WORKLOADS = {
    "green_table": GreenTable,
    "green_pointwise": GreenPointwise,
    "spectral_pipeline": SpectralPipeline,
}


def timed_phase(wl, seconds, trace):
    """Run passes; returns (untraced latencies, traced latencies, tracer, tally).

    Latencies are lists of passes, each a list of seconds per operation.
    """
    tracer, off = Tracer(True), Tracer(False)
    tally = Tally()
    latencies = {False: [], True: []}
    start = time.perf_counter()
    while True:
        traced = trace and len(latencies[False]) > len(latencies[True])
        tr = tracer if traced else off
        pass_start = time.perf_counter()
        lat = []
        for i, job in enumerate(wl.jobs):
            tracer.op = i
            op_start = time.perf_counter()
            with tr.span("op", label=wl.label(job)):
                out = wl.run(job, tr)
            lat.append(time.perf_counter() - op_start)
            wl.check(job, out, tally)
            del out
        latencies[traced].append(lat)
        now = time.perf_counter()
        passes = len(latencies[False]) + len(latencies[True])
        if passes >= 2 and now + (now - pass_start) - start > seconds:
            return latencies[False], latencies[True], tracer, tally


def per_op_medians(passes):
    """Median latency of each operation across passes."""
    return [median(op) for op in zip(*passes)]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and report only when the first operation would start")
    p.add_argument("--spans", help="write the traced spans to this JSON file")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.scale)
    wl.warm_up()
    first_op = time.monotonic()
    result = {"first_op": first_op, "spherepde": os.path.realpath(os.path.dirname(spherepde.__file__))}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    untraced, traced, tracer, tally = timed_phase(wl, args.seconds, bool(args.trace))
    result.update({
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "raised": tally.raised,
        "unexpected": tally.unexpected,
        "wrong": tally.wrong,
        "errors": dict(tally.errors),
        "pass_sums": {"untraced": [sum(p) for p in untraced], "traced": [sum(p) for p in traced]},
        "ops": len(wl.jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    ops = per_op_medians(untraced)
    result["wall_s"] = sum(ops)
    result["op_p50_s"] = median(ops)
    if traced:
        layers = tracer.layer_metrics(len(traced))
        layers["green.series.tail_honest_ratio"] = (
            tally.tail_honest / tally.tail_checked if tally.tail_checked else 0.0, "1")
        layers["bench.fail_ratio"] = (tally.failed / tally.attempted, "1")
        layers["bench.trace_overhead_s"] = (sum(per_op_medians(traced)) - sum(ops), "s")
        result["layers"] = layers
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
