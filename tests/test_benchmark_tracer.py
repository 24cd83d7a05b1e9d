"""The benchmark tracer still binds the program names it wraps.

benchmarks/tracing.install wraps np_solver._oracle_scan, the grid oracles,
_grids.iter_grid_chunks, bounds.gamma_curve, harness._run_trials,
_solver_core.minimize (SLSQP, whose scipy import is deferred to the first
call) and more by name, so renaming one of them, or routing an oracle around it, breaks
the benchmark's per-layer numbers.  install patches module attributes for
the whole process, so the check runs in a subprocess of its own.  The CLI
workload wraps cli.load_csv by name too, inside the solve process that
benchmarks/trace_cli.py runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [{benchmarks!r}, {src!r}]
import numpy as np
import tracing
from npconvex import bounds, ccp, np_solver
from npconvex.hypothesis import BaseDictionary, ConstantClassifier, DecisionStump
from npconvex.risk import Sample, WeightedAtoms
from npconvex.surrogate import hinge, logit

tr = tracing.Tracer()
tracing.install(tr)
rng = np.random.default_rng(0)
d = BaseDictionary([DecisionStump(0, 0.995, -1), DecisionStump(0, 0.5, 1)], dim=1)
sample = Sample(rng.uniform(0, 1, (200, 1)), rng.uniform(0.1, 1.0, (200, 1)))
cfg = np_solver.NPConfig(alpha=0.9, delta=0.1, surrogate=hinge())
np_solver.grid_oracle_np(sample, d, cfg, resolution=0.05)
G = np.column_stack([-np.ones(2000), rng.uniform(-1.0, 1.0, 2000)])
inst = ccp.CCPInstance(alpha=0.4, delta=0.1, surrogate=hinge(), g_matrix=G,
                       **ccp.linear_objective([0.5, -0.5]))
ccp.grid_oracle_ccp(inst, resolution=0.05)
H = np.array([[-1.0, 1.0], [-1.0, -1.0]])
atoms = WeightedAtoms(H, np.array([0.5, 0.5]))
d2 = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)], dim=1)
bounds.gamma_curve((atoms, atoms), d2, hinge(), [0.5], resolution=0.1)
big = Sample(rng.uniform(0, 1, (4000, 1)), rng.uniform(0.3, 1.3, (4000, 1)))
smooth = np_solver.NPConfig(alpha=0.8, delta=0.1, surrogate=logit())
status = np_solver.solve_np(big, d2, smooth).status
print(json.dumps({{"counts": dict(tr.counts), "status": status,
                   "spans": sorted({{s[1] for s in tr.spans}})}}))
"""


def test_tracer_install_counts_the_grid_referees():
    script = SCRIPT.format(benchmarks=str(ROOT / "benchmarks"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = out["counts"]
    # a 0.05 grid at M = 2 has 21 points, a 0.1 grid 11; the NP referee
    # scans only the affine window's 5 candidates among the 21
    assert counts["np_solver.oracle_points"] == 5
    assert counts["bounds.gamma_points"] == 11
    assert counts["ccp.oracle_points"] == 21
    assert {"np_solver.oracle", "ccp.oracle", "bounds.gamma_curve",
            "_grids.gen", "_solver_core.slsqp"} <= set(out["spans"])
    # the logit solve reaches SLSQP through the wrapped _solver_core.minimize
    assert out["status"] == "optimal"
    assert counts["_solver_core.slsqp_runs"] >= 1


SMOOTH_SCRIPT = """
import json, sys
sys.path[:0] = [{benchmarks!r}, {src!r}]
import numpy as np
import tracing
from npconvex import hypothesis, np_solver
from npconvex.risk import Sample
from npconvex.surrogate import logit

tr = tracing.Tracer()
tracing.install(tr)
rng = np.random.default_rng(1)
neg, pos = rng.normal(0.0, 1.0, (3000, 2)), rng.normal(0.7, 1.0, (3000, 2))
stumps = hypothesis.build_stump_dictionary(np.vstack([neg, pos]), 3).bases
d = hypothesis.BaseDictionary([hypothesis.ConstantClassifier(-1.0), *stumps], dim=2)
cfg = np_solver.NPConfig(alpha=0.8, delta=0.1, surrogate=logit())
status = np_solver.solve_np(Sample(neg, pos), d, cfg).status
print(json.dumps({{"counts": dict(tr.counts), "status": status}}))
"""


def test_tracer_counts_the_smooth_risk_forms():
    # the wrapper around _solver_core.risk_form reads np.shape(H)[0] of
    # whatever _class_form passes it, now a BaseDictionary.operator
    script = SMOOTH_SCRIPT.format(benchmarks=str(ROOT / "benchmarks"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = out["counts"]
    assert out["status"] == "optimal"
    assert counts["risk.value_calls"] > 0 and counts["risk.grad_calls"] > 0
    # each value or gradient call reads one class of 3000 rows
    assert counts["risk.matvec_rows"] == 3000 * (counts["risk.value_calls"]
                                                 + counts["risk.grad_calls"])


def test_traced_cli_solve_records_the_csv_load(tmp_path):
    rng = np.random.default_rng(2)
    data = tmp_path / "train.csv"
    rows = ["x0,x1,y"] + [f"{u:.6f},{v:.6f},{lab}" for u, v, lab in
                          zip(rng.normal(size=2000), rng.normal(size=2000),
                              np.repeat([-1, 1], 1000))]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "trace_cli.py"), str(trace), "solve",
         "--data", str(data), "--alpha", "0.8", "--delta", "0.1", "--no-timestamp"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["solution"]["status"] == "optimal"
    out = json.loads(trace.read_text(encoding="utf-8"))
    assert "cli.load_csv" in {span[1] for span in out["spans"]}
    assert out["counts"]["cli.rows_parsed"] == 2000
