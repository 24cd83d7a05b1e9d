"""Smoke test of the benchmark: every workload, untraced and traced.

    python3 -m pytest benchmarks/test_smoke.py

Runs benchmarks/run.py with --smoke (tiny inputs) and checks that every
metric is printed with its unit, that the result line carries exactly the
metrics BENCHMARK.json declares, and that every op's checks pass.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("np-smooth", "cli-solve-wide", "ccp-mc", "oracle-referee")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
              "peak_rss_mb": "MB", "failed_frac": "ratio"}
PER_LAYER = {
    **{f"hypothesis.{m}": "s/op" for m in ("build_s", "evaluate_s")},
    **{f"hypothesis.{m}": "count/op" for m in ("evaluate_calls", "cells", "distinct_rows")},
    "hypothesis.h_mb": "MB/op",
    **{f"risk.{m}": "count/op" for m in ("value_calls", "grad_calls", "matvec_rows")},
    **{f"risk.{m}": "s/op" for m in ("value_s", "grad_s")},
    **{f"_solver_core.{m}": "count/op" for m in (
        "route_affine", "route_smooth", "affine_pairs", "slsqp_runs", "slsqp_nit",
        "slsqp_nfev", "slsqp_njev")},
    **{f"_solver_core.{m}": "s/op" for m in ("affine_s", "slsqp_s", "probe_s", "polish_s")},
    "_solver_core.slsqp_success_frac": "ratio",
    **{f"np_solver.{m}": "s/op" for m in ("solve_s", "oracle_s")},
    "np_solver.oracle_points": "count/op",
    **{f"ccp.{m}": "s/op" for m in ("solve_s", "evaluate_bases_s", "feasibility_s",
                                    "oracle_s")},
    **{f"ccp.{m}": "count/op" for m in ("base_calls", "oracle_points")},
    "_grids.chunks": "count/op", "_grids.points": "count/op", "_grids.gen_s": "s/op",
    "bounds.gamma_curve_s": "s/op", "bounds.gamma_points": "count/op",
    "harness.trials": "count/op", "harness.trial_errors": "count/op",
    "harness.workers": "count", "harness.busy_frac": "ratio",
    **{f"cli.{m}": "s/op" for m in ("import_s", "load_csv_s", "emit_s")},
    "cli.rows_parsed": "count/op", "cli.report_bytes": "bytes/op",
    "trace.overhead_frac": "ratio",
}


def run_bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, unit = line.split()[:4]
            printed[name] = unit
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_checks_pass(workload, trace):
    printed, result = run_bench(workload, trace)
    expected = PER_LAYER if trace else END_TO_END
    for name, unit in expected.items():
        assert printed.get(name) == unit, f"{name}: printed with unit {printed.get(name)}"
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload != "np-smooth":  # np-smooth counts the known surrogate DomainError
        assert result["failed"] == 0
