"""Op digests: every benchmark op's verdict and digest, one op at a time.

benchmarks/run.py folds only its first DIGEST_OPS ops into the digest it
prints, so a run's digest covers three ops of a workload.  Run as a
script,

    PYTHONPATH=<tree>/src python tests/op_digests.py --workload W --ops N [--seed S] [--smoke]

it loads <tree>/benchmarks/workloads.py (read only; <tree> is the tree
whose npconvex is imported), pins OPENBLAS_NUM_THREADS to 1 for its own
process before numpy loads, prints that value in a header, then runs ops
0, ..., N - 1 in this process and prints one "i problems digest" line per
op: the op's index, its judge's problem list as JSON (or error=<type> for
an op that raised) and its digest.  With

    PYTHONPATH=<tree>/src python tests/op_digests.py --workload W --ops N --against OTHER

it runs the same ops under OTHER/src and OTHER/benchmarks in a child
process, prints each op whose line differs, and exits 1 if any does.
tests/test_op_digests.py runs smoke ops in-process.  pytest does not
collect this module.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path


def _workloads():
    """The workloads module of the tree whose npconvex this process imports."""
    import npconvex

    path = Path(npconvex.__file__).resolve().parents[2] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("op_digests_workloads", path)
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # read only
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def lines(workload: str, ops: int, seed: int = 1, smoke: bool = False) -> list:
    """One "i problems digest" line per op 0, ..., ops - 1, run in order."""
    wl_module = _workloads()
    tree = Path(wl_module.__file__).parents[1]
    out = []
    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(tree)  # the CLI workload runs the src of the working directory
        try:
            wl = wl_module.WORKLOADS[workload](seed, smoke, workdir)
            for i in range(ops):
                run, judge = wl.prepare(i)
                try:
                    problems, digest = judge(run())
                    verdict = json.dumps(problems)
                except Exception as err:  # an op that raises is counted as failed
                    traceback.print_exc(limit=3, file=sys.stderr)
                    verdict, digest = f"error={type(err).__name__}", ""
                out.append(f"{i} {verdict} {digest}")
        finally:
            os.chdir(cwd)
    return out


def _against(other: str, argv: list, own: list) -> int:
    """Run argv's ops under other's src in a child; print each op that differs."""
    env = dict(os.environ, PYTHONPATH=str(Path(other) / "src"))
    proc = subprocess.run([sys.executable, __file__, *argv], env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    theirs = [line for line in proc.stdout.splitlines() if not line.startswith("#")]
    print(f"# OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} against {other}")
    differ = 0
    for ours, other_line in zip(own, theirs):
        if ours != other_line:
            differ += 1
            print(f"ours   {ours}\ntheirs {other_line}")
    if len(own) != len(theirs):
        differ += 1
        print(f"# {len(own)} ops here, {len(theirs)} there")
    failing = sum(line.split(" ", 2)[1] != "[]" for line in own)
    print(f"# {differ} of {len(own)} ops differ; {failing} fail here")
    return 1 if differ else 0


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--against", metavar="OTHER",
                        help="the root of a tree to compare with")
    args = parser.parse_args()
    own = lines(args.workload, args.ops, args.seed, args.smoke)
    if args.against:
        argv = ["--workload", args.workload, "--ops", str(args.ops), "--seed", str(args.seed)]
        return _against(args.against, argv + ["--smoke"] * args.smoke, own)
    print(f"# OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    print("\n".join(own))
    return 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads in lines
    sys.exit(_main())
