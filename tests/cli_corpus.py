"""The CLI corpus: a fixed list of seeded runs whose bytes define "same behaviour".

Every run is one `npconvex` command with `--seed 3 --no-timestamp`, on
inputs that `prepare` generates from fixed seeds.  Run as a script,

    PYTHONPATH=<tree>/src python tests/cli_corpus.py

it pins OPENBLAS_NUM_THREADS to 1 for its own process before numpy loads,
prints that value in a header, then one line per run: its name, exit code
and the sha256 of its stdout, stderr and each report file, with the
scratch directory masked.  Diffing that output between the `src` of two
trees is the same-behaviour check.  tests/test_cli_corpus.py runs the same
list in-process at the SMOKE sizes.  pytest does not collect this module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

#: rows per class of the labeled inputs, scenario draws, trials per
#: experiment, sample size per trial, and Monte Carlo / validation draws
FULL = {"rows": 20000, "draws": 20000, "trials": 40, "n": 10000, "mc": 100000}
SMOKE = {"rows": 6000, "draws": 3000, "trials": 3, "n": 3000, "mc": 5000}


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


def _main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        print(f"# OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
        for name, argv in prepare(root, FULL):
            print(digest_line(name, run(root, name, argv)), flush=True)
    return 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads in prepare
    sys.exit(_main())
