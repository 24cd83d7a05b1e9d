"""npconvex benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  Workloads: np-smooth, cli-solve-wide,
ccp-mc, oracle-referee (see benchmarks/README.md).  This process is the
load generator: single-threaded, stdlib only.  It starts the workload
processes one after another; they run the ops as a closed loop with one
client.  It prints one "metric NAME VALUE UNIT" line per metric, then a
JSON result as the last line of stdout.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics and the tracing overhead.  --smoke uses tiny inputs.
"""

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

from worker import MODULES, THREAD_VARS  # stdlib-only at import

HERE = os.path.dirname(os.path.abspath(__file__))
# An untraced run is split over this many workload processes, which take
# over the op sequence in turn.  Op times shift by up to 10% from one
# process to the next (thread placement, GIL hand-offs), so pooling the
# ops of several processes steadies the medians.  Each process start is
# also one set-up sample.
PROCESSES = 4
# ccp-mc runs its harness pool with one worker.  With the default two,
# the per-row Python bases of both trial threads contend for the GIL on
# 2 vCPUs; host CPU steal then stalls the GIL holder, and ccp-mc's median
# op time moved by 66% between two sets of 10 runs while the other
# workloads moved by under 8%.  No relative bound can hold across that.
PINNED_ENV = {"ccp-mc": {"NP_THREADS": "1"}}
DIGEST_OPS = 3
TIME_LIMIT_S = 170.0
P90_MIN_OPS = 100  # op_p90_s needs at least 10 samples beyond it


def fail(msg: str) -> int:
    print(f"benchmarks/run.py: {msg}", file=sys.stderr)
    return 1


class WorkerError(Exception):
    pass


def run_worker(argv, env, deadline):
    """Run one workload process; return (seconds until "ready", its result)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise WorkerError(f"workload process did not start: {line.strip()!r}")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError("workload did not finish within the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise WorkerError(f"workload process exited with {proc.returncode}")
    try:
        return setup, json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise WorkerError("workload process printed no result")


def code_version(root: str) -> dict:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "npconvex")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = "n/a (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True)
        commit = res.stdout.strip() or commit
    return {"commit": commit, "src_sha256": h.hexdigest()[:16]}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def metric(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"metric {name} {shown} {unit}" + (f"  ({note})" if note else ""))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(MODULES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "npconvex", "__init__.py")):
        return fail("src/npconvex not found; run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    deadline = time.monotonic() + TIME_LIMIT_S
    # the program runs at its own thread defaults, over-subscription included
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(PINNED_ENV.get(args.workload, {}))
    env["PYTHONPATH"] = os.path.join(root, "src")
    workdir = os.path.join(root, ".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(workdir)
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    argv += ["--trace"] * args.trace + ["--smoke"] * args.smoke

    setups, results, records = [], [], []
    try:
        for k in range(1 if args.trace else PROCESSES):
            # each process runs until the run's op time reaches its share
            share = args.seconds * (k + 1) / (1 if args.trace else PROCESSES)
            budget = max(share - sum(r["latency_s"] for r in records), 0.0)
            setup, result = run_worker(
                argv + ["--first-op", str(len(records)), "--seconds", str(budget)],
                env, deadline)
            setups.append(setup)
            results.append(result)
            records += result["records"]
    except WorkerError as err:
        return fail(str(err))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    passed = [r["latency_s"] for r in records if not r["error"] and not r["problems"]]
    attempted, failed = len(records), len(records) - len(passed)
    wrong = [f"op {r['i']}: {'; '.join(r['problems'])}" for r in records if r["problems"]]
    timed = sum(r["latency_s"] for r in records)
    errors = {}
    for result in results:
        for name, count in result["errors"].items():
            errors[name] = errors.get(name, 0) + count
    env_info = results[0]["env"]
    # a failed op enters the digest as its error type
    first = [r["digest"] or r["error"] for r in records[:DIGEST_OPS]]
    digest = hashlib.sha256("\n".join(first).encode()).hexdigest()

    print(f"# npconvex benchmark: workload {args.workload}, closed loop, 1 client, "
          f"{'smoke' if args.smoke else 'full'} inputs, {len(results)} workload processes")
    info = {**code_version(root), **{k: v for k, v in env_info.items() if k != "thread_env"},
            "seed": args.seed, "seconds": args.seconds, "traced": args.trace}
    print("env " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("env workload_threads " + " ".join(
        f"{k}={v}" for k, v in env_info["thread_env"].items()))
    print(f"ops attempted={attempted} passed={len(passed)} failed={failed} "
          f"errors={json.dumps(errors)}")
    for line in wrong:
        print(f"check FAILED {line}")
    print(f"digest sha256={digest} over the first {len(first)} ops")
    if not passed:
        return fail("no op passed its checks; nothing to measure")

    measured = {}
    if args.trace:
        layers = results[0]["layers"]
        for name, (value, unit) in layers.items():
            metric(name, value, unit)
            measured[name.lstrip("_")] = {"value": value, "unit": unit}
        print(f"trace spans written to {results[0]['spans_file']}; tracing overhead "
              f"{layers['trace.overhead_frac'][0]:+.1%} "
              f"({layers['trace.untraced_s'][0]:.3f} s untraced, "
              f"{layers['trace.traced_s'][0]:.3f} s traced, same ops)")
    else:
        e2e = {
            "setup_s": (statistics.median(setups), "s",
                        f"median of {len(setups)} workload process starts"),
            "ops_per_s": (len(passed) / timed, "1/s",
                          f"{len(passed)} passed ops / {timed:.3f} s of op time"),
            "op_p50_s": (statistics.median(passed), "s", f"n={len(passed)}"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB",
                            "largest workload process"),
        }
        for name, (value, unit, note) in e2e.items():
            metric(name, value, unit, note)
            measured[name] = {"value": value, "unit": unit}
        p90 = percentile(passed, 0.9) if len(passed) >= P90_MIN_OPS else None
        metric("op_p90_s", p90, "s", f"n={len(passed)}" if p90 is not None else
               f"needs >= {P90_MIN_OPS} passed ops, have {len(passed)}")
        metric("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} attempted")

    # the result line carries exactly the metrics BENCHMARK.json declares;
    # metric names there cannot start with "_", so "_grids.points" is
    # reported as "grids.points"
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        metrics = {m["name"]: measured[m["name"]] for m in declared}
    except KeyError as err:
        return fail(f"BENCHMARK.json declares {err.args[0]}, which was not measured")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
