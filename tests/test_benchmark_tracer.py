"""The benchmark tracer still binds the program names it wraps.

benchmarks/tracing.install wraps np_solver._oracle_scan, the grid oracles,
_grids.iter_grid_chunks, bounds.gamma_curve, harness._run_trials,
_solver_core.minimize (SLSQP, whose scipy import is deferred to the first
call) and more by name, so renaming one of them, or routing an oracle around it, breaks
the benchmark's per-layer numbers.  install patches module attributes for
the whole process, so the check runs in a subprocess of its own.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

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
    # a 0.05 grid at M = 2 has 21 points, a 0.1 grid 11
    assert counts["np_solver.oracle_points"] == 21
    assert counts["bounds.gamma_points"] == 11
    assert counts["ccp.oracle_points"] == 21
    assert {"np_solver.oracle", "ccp.oracle", "bounds.gamma_curve",
            "_grids.gen", "_solver_core.slsqp"} <= set(out["spans"])
    # the logit solve reaches SLSQP through the wrapped _solver_core.minimize
    assert out["status"] == "optimal"
    assert counts["_solver_core.slsqp_runs"] >= 1
