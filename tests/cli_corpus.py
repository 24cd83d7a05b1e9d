"""The CLI corpus: a fixed list of seeded runs whose bytes define "same behaviour".

Every run is one `npconvex` command with `--seed 3 --no-timestamp`, on
inputs that `prepare` generates from fixed seeds.  Run as a script,

    PYTHONPATH=<tree>/src python tests/cli_corpus.py

it pins OPENBLAS_NUM_THREADS to 1 for its own process before numpy loads,
prints that value in a header, then one line per run: its name, exit code
and the sha256 of its stdout, stderr and each report file, with the
scratch directory masked.  Diffing that output between the `src` of two
trees is the same-behaviour check.  With

    PYTHONPATH=<tree>/src python tests/cli_corpus.py --against OTHER/src

it runs the list under both `src` trees, the other one in a child
process, and prints each run whose bytes differ with the largest absolute
difference of each numeric key of its JSON reports and each column of
its CSV files; it exits 1 if any run differs.  tests/test_cli_corpus.py
runs the same list in-process at the SMOKE sizes.  pytest does not
collect this module.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

#: rows per class of the labeled inputs, scenario draws, trials per
#: experiment, sample size per trial, Monte Carlo / validation draws, and
#: whether verify-lemmas also runs at its defaults (about 3 s)
FULL = {"rows": 20000, "draws": 20000, "trials": 40, "n": 10000, "mc": 100000,
        "lemma_defaults": True}
SMOKE = {"rows": 6000, "draws": 3000, "trials": 3, "n": 3000, "mc": 5000,
         "lemma_defaults": False}


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                                 for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def prepare(root: Path, size: dict) -> list:
    """Write the seeded inputs and experiment configs into root; return
    the runs as (name, argv) pairs, in corpus order."""
    import numpy as np

    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(3)
    m = size["rows"]
    neg = rng.normal(0.0, 1.0, (m, 2))
    pos = rng.normal((1.0, 0.5), 1.0, (m, 2))
    _write_csv(root / "train.csv", "x0,x1,y",
               [(*map(float, x), -1) for x in neg] + [(*map(float, x), 1) for x in pos])
    _write_csv(root / "small.csv", "x0,y",
               [(float(x), -1) for x in rng.uniform(0, 1, 12)]
               + [(float(x), 1) for x in rng.uniform(0.3, 1.3, 12)])
    _write_csv(root / "draws.csv", "x0", [(float(x),) for x in rng.uniform(0, 1, size["draws"])])
    _write_csv(root / "custom.csv", "x0,y",
               [(float(x), -1) for x in rng.normal(0.0, 1.0, m // 4)]
               + [(float(x), 1) for x in rng.normal(1.0, 1.0, m // 4)])

    t, n, mc = size["trials"], size["n"], size["mc"]
    prop31 = {"kind": "prop31", "alpha": 0.3}
    gauss = {"kind": "gaussian_1d", "mu_minus": 0.0, "mu_plus": 2.0, "sigma": 1.0}
    custom = {"kind": "custom_csv", "data": str(root / "custom.csv"), "p": 0.4}
    stumps = {"thresholds": [0.3, 0.6], "polarities": "positive"}
    configs = {
        "counterexample": {"alpha": 0.25, "n_minus": n, "n_plus": n, "trials": t},
        "coverage-prop31": {"scenario": prop31, "dictionary": stumps, "alpha": 0.4,
                            "delta": 0.1, "n_minus": n, "n_plus": n, "trials": t},
        "coverage-gaussian-logit": {
            "scenario": gauss, "dictionary": {"thresholds": [0.5, 1.0]},
            "surrogate": "logit", "alpha": 0.7, "delta": 0.1, "n_minus": n,
            "n_plus": n, "trials": t, "mc_draws": mc},
        "rate-prop31": {"scenario": prop31, "dictionary": stumps, "alpha": 0.4,
                        "delta": 0.1, "n_grid": [n, 2 * n], "trials": t,
                        "eps_bar": 0.0, "oracle_resolution": 1e-2},
        "rate-gaussian": {"scenario": gauss, "dictionary": {"thresholds": [1.0]},
                          "alpha": 0.4, "delta": 0.1, "n_grid": [n], "trials": t,
                          "oracle_resolution": 1e-2, "mc_draws": mc},
        "sampling-prop31": {"scenario": prop31, "dictionary": stumps, "alpha": 0.4,
                            "delta": 0.1, "n": 2 * n, "trials": t,
                            "oracle_resolution": 1e-2},
        "sampling-custom": {"scenario": custom,
                            "dictionary": {"thresholds": [0.0, 1.0], "polarities": "positive"},
                            "alpha": 0.4, "delta": 0.1, "n": 2 * n, "trials": t,
                            "eps_bar": 0.2, "oracle_resolution": 1e-2, "mc_draws": mc},
        "ccp-prop31": {"scenario": {"kind": "prop31", "alpha": 0.25},
                       "constraint": {"thresholds": [0.5], "polarities": "negative"},
                       "objective": [1.0, 0.0], "alpha": 0.25, "delta": 0.1, "n": n,
                       "trials": t, "validation_draws": mc, "f_star": 0.5, "eps": 0.5},
        "ccp-custom": {"scenario": custom, "constraint": {"thresholds": [0.0, 1.0]},
                       "objective": [1.0, 0.0, 0.0, 0.0, 0.0], "alpha": 0.3,
                       "delta": 0.1, "n": n, "trials": t, "validation_draws": mc},
        "coverage-custom": {"scenario": custom, "dictionary": {"thresholds": [0.5]},
                            "alpha": 0.4, "delta": 0.1, "n_minus": n, "n_plus": n,
                            "trials": t, "mc_draws": mc},
    }
    for name, cfg in configs.items():
        (root / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")

    out = root / "out"
    out.mkdir(exist_ok=True)

    def program(command, data, alpha, surrogate, *flags):
        return [command, "--data", str(root / data), "--alpha", alpha, "--delta", "0.1",
                "--surrogate", surrogate, *flags]

    def experiment(name, to_dir):
        kind = name.split("-")[0]
        argv = ["experiment", "--kind", kind, "--config", str(root / f"{name}.json")]
        return argv + ["--out", str(out / name)] if to_dir else argv

    runs = [
        ("solve-hinge-out", program("solve", "train.csv", "0.5", "hinge",
                                    "--out", str(out / "solve-hinge-out"))),
        ("solve-hinge", program("solve", "train.csv", "0.6", "hinge", "--stumps", "5")),
        ("solve-logit", program("solve", "train.csv", "0.8", "logit", "--stumps", "2")),
        ("solve-exponential", program("solve", "train.csv", "0.9", "exponential")),
        ("solve-exponential-infeasible",
         program("solve", "train.csv", "0.5", "exponential", "--no-constant",
                 "--stumps", "1")),
        ("solve-sample-too-small", program("solve", "small.csv", "0.3", "hinge")),
        ("ccp-hinge", program("ccp", "draws.csv", "0.4", "hinge",
                              "--objective", "1,0,0,0,0,0,0")),
        ("ccp-logit-infeasible", program("ccp", "draws.csv", "0.45", "logit",
                                         "--no-constant", "--objective", "1,0,0,0,0,0")),
        ("verify-lemmas", ["verify-lemmas", "--n-max", "30", "--q-points", "8",
                           "--t-points", "3"]),
    ]
    if size["lemma_defaults"]:
        runs.append(("verify-lemmas-defaults", ["verify-lemmas"]))
    runs += [(name, experiment(name, to_dir)) for name, to_dir in (
        ("counterexample", True), ("coverage-prop31", False),
        ("coverage-gaussian-logit", True), ("rate-prop31", True),
        ("rate-gaussian", False), ("sampling-prop31", False),
        ("sampling-custom", True), ("ccp-prop31", False), ("ccp-custom", True),
        ("coverage-custom", True))]
    return [(name, [*argv, "--seed", "3", "--no-timestamp"]) for name, argv in runs]


def run(root: Path, name: str, argv: list) -> dict:
    """One run through cli.main in this process: its exit code and the
    bytes of stdout, stderr and each report file under out/<name>, with
    root masked as <dir>."""
    from npconvex.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    mask = str(root).encode("utf-8")
    target = root / "out" / name
    if target.is_dir():
        files = sorted(target.iterdir())
    else:
        files = [target] if target.exists() else []
    out = {"exit": code, "stdout": stdout.getvalue().encode("utf-8"),
           "stderr": stderr.getvalue().encode("utf-8")}
    out.update({f.name: f.read_bytes() for f in files})
    return {k: v.replace(mask, b"<dir>") if isinstance(v, bytes) else v
            for k, v in out.items()}


def digest_line(name: str, result: dict) -> str:
    parts = [name, f"exit={result['exit']}"]
    parts += [f"{k}={hashlib.sha256(v).hexdigest()}"
              for k, v in result.items() if k != "exit"]
    return " ".join(parts)


def results(size: dict) -> dict:
    """{name: run result} for every run of the list at `size`, in corpus order."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        return {name: run(root, name, argv) for name, argv in prepare(root, size)}


def _values(file: str, blob: bytes):
    """{key: values} of one output: a JSON document flattened to dotted
    keys, the items of a list sharing their list's key + "[]", or a CSV
    file's columns, each cell a float where it parses as one.  None for
    bytes that are neither."""
    text = blob.decode("utf-8")
    out = {}
    if file.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        for row in rows[1:]:
            for key, cell in zip(rows[0], row):
                try:
                    out.setdefault(key, []).append(float(cell))
                except ValueError:
                    out.setdefault(key, []).append(cell)
        return out
    try:
        doc = json.loads(text)
    except ValueError:
        return None

    def walk(value, key):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(value, list):
            for v in value:
                walk(v, key + "[]")
        else:
            out.setdefault(key, []).append(value)
    walk(doc, "")
    return out


def key_differences(file: str, ours: bytes, theirs: bytes) -> list:
    """(key, largest absolute difference) for each key whose values differ
    between two versions of one output, in key order.  The difference is
    None where the key is not numbers of the same count on both sides,
    and the key is "" where the bytes are neither JSON nor CSV."""
    a, b = _values(file, ours), _values(file, theirs)
    if a is None or b is None:
        return [] if ours == theirs else [("", None)]
    diffs = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        if (x is None or y is None or len(x) != len(y)
                or not all(type(v) in (int, float) for v in x + y)):
            diffs.append((key, None))
            continue
        gaps = [0.0 if u == v or (math.isnan(u) and math.isnan(v)) else abs(u - v)
                for u, v in zip(x, y)]
        gap = math.nan if any(map(math.isnan, gaps)) else max(gaps)
        if gap != 0.0:  # NaNs on both sides compare unequal in x == y
            diffs.append((key, gap))
    return diffs


def _against(other_src: str) -> int:
    """Run the list under this process's npconvex and, in a child, under
    other_src's; print each run that differs, key by key."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([other_src, str(Path(__file__).parent)]))
    with subprocess.Popen(
            [sys.executable, "-c", "import pickle, sys, cli_corpus; sys.stdout.buffer.write("
             "pickle.dumps(cli_corpus.results(cli_corpus.FULL)))"],
            env=env, stdout=subprocess.PIPE) as child:
        ours = results(FULL)
        blob = child.communicate()[0]
    if child.returncode:
        raise RuntimeError(f"the corpus under {other_src} exited {child.returncode}")
    theirs = pickle.loads(blob)  # written by this script's own child
    print(f"# OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} against {other_src}")
    differ = 0
    for name, result in ours.items():
        other = theirs[name]
        if result == other:
            continue
        differ += 1
        print(f"{name} differs")
        for file in sorted(result.keys() | other.keys()):
            x, y = result.get(file), other.get(file)
            if x == y:
                continue
            if not (isinstance(x, bytes) and isinstance(y, bytes)):
                print(f"  {file} {x!r} against {y!r}")
                continue
            for key, gap in key_differences(file, x, y):
                print(f"  {file} {key or '<bytes>'} "
                      + ("changed" if gap is None else f"{gap:.2g}"))
    print(f"# {differ} of {len(ours)} runs differ")
    return 1 if differ else 0


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="the src directory of a tree to compare with")
    args = parser.parse_args()
    if args.against:
        return _against(args.against)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        print(f"# OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
        for name, argv in prepare(root, FULL):
            print(digest_line(name, run(root, name, argv)), flush=True)
    return 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads in prepare
    sys.exit(_main())
