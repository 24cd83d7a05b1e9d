"""Workload process: import the program, then run a slice of one workload's ops.

    python3 benchmarks/worker.py --workload NAME --seed N --workdir DIR
                                 --first-op I --seconds S [--trace] [--smoke]

Prints "ready" once the program's modules are imported (the load
generator times set-up up to that line).  Then it runs ops I, I+1, ...
one after another (a closed loop with one client) until S seconds of op
time have passed, at least one op, and prints one JSON result line.

With --trace it runs ops for S/2 seconds untraced, then runs the same ops
again with the wrappers installed.  The per-layer numbers come from the
second pass, and the difference between the passes is the tracing
overhead.
"""

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback

# the program modules each workload needs; importing them is set-up time
MODULES = {
    "np-smooth": ("npconvex.np_solver",),
    "cli-solve-wide": ("npconvex.cli",),
    "ccp-mc": ("npconvex.harness",),
    "oracle-referee": ("npconvex.bounds", "npconvex.ccp", "npconvex.np_solver"),
}
THREAD_VARS = ("NP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def run_ops(wl, ops, seconds, tracer, errors):
    """Run the ops in `ops` in order until `seconds` of op time (None: all)."""
    from workloads import OpError

    records, timed = [], 0.0
    for i in ops:
        if seconds is not None and records and timed >= seconds:
            break
        run, judge = wl.prepare(i, tracer)
        error, problems, digest = None, [], ""
        start = time.perf_counter()
        try:
            if tracer is None:
                out = run()
            else:
                tracer.op = i
                with tracer.span("op"):
                    out = run()
        except Exception as err:  # an op that raises is counted as failed
            error = type(err).__name__
            if error not in errors:
                traceback.print_exc(limit=3, file=sys.stderr)
        latency = time.perf_counter() - start
        if error is None:
            try:
                problems, digest = judge(out)
            except OpError as err:
                error = "OpError"
                print(f"op {i}: {err}", file=sys.stderr)
        if error is not None:
            errors[error] = errors.get(error, 0) + 1
        records.append({"i": i, "latency_s": latency, "error": error,
                        "problems": problems, "digest": digest})
        timed += latency
    return records


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(MODULES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--first-op", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    for name in MODULES[args.workload]:
        importlib.import_module(name)
    print("ready", flush=True)

    import npconvex
    src = os.path.join(os.getcwd(), "src", "")
    if not os.path.abspath(npconvex.__file__).startswith(src):
        print(f"npconvex was imported from {npconvex.__file__}, not {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    errors = {}
    ops = itertools.count(args.first_op)
    if not args.trace:
        result = {"records": run_ops(wl, ops, args.seconds, None, errors)}
    else:
        untraced = run_ops(wl, ops, args.seconds / 2, None, errors)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_ops(wl, [r["i"] for r in untraced], None, tracer, errors)
        path = os.path.join(".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracing.dump(tracer.spans, path)
        result = {"records": untraced + traced, "spans_file": path,
                  "layers": tracing.summarize(tracer, [r["latency_s"] for r in untraced],
                                              [r["latency_s"] for r in traced])}
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(env=environment(), errors=errors,
                  peak_rss_mb=usage / 1024.0)  # ru_maxrss is in KiB on Linux
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
