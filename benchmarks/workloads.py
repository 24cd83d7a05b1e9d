"""The four benchmark workloads.

Each workload builds its inputs from the seed and hands out ops; op i is
the same in whichever workload process of a run executes it.  An op is
a pair (run, judge): `run()` is the timed call into the program, and
`judge(out)` checks the output afterwards and returns (problems, digest).
An empty problem list means the op passed.  Input generation happens in
`prepare`, outside the timed call.

Why these four: each one is the only workload that stresses some layer.
  np-smooth       the SLSQP route and the smooth risk forms
  cli-solve-wide  the CLI process (import, per-cell CSV parse), the affine
                  route, and the big H matrices (memory)
  ccp-mc          per-row Python constraint bases in harness trials
  oracle-referee  the grid oracles, _grids and bounds.gamma_curve
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np

# entry points are called through their modules so that the traced run's
# wrappers, which replace module attributes, see every call
from npconvex import bounds, ccp, harness, hypothesis, np_solver
from npconvex.ccp import CCPInstance, linear_objective
from npconvex.hypothesis import BaseDictionary, ConstantClassifier, DecisionStump
from npconvex.np_solver import NPConfig
from npconvex.risk import Sample, WeightedAtoms
from npconvex.surrogate import exponential, hinge, logit

FEAS_TOL = 1e-8  # the solvers' default feas_tol
ORACLE_TOL = 1e-3  # criterion 5: |solver - oracle| <= 1e-3 ...
HINGE_RES = 1e-4  # ... at oracle resolution 1e-4
HERE = os.path.dirname(os.path.abspath(__file__))


def fmt(x: float) -> str:
    """Fixed 8-decimal text for digests: drops the last-digit noise that
    multithreaded BLAS reductions leave in otherwise equal results."""
    return f"{round(float(x), 8) + 0.0:.8f}"


def simplex_problems(lam) -> list:
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0.0) or abs(float(lam.sum()) - 1.0) > 1e-9:
        return [f"weights off the simplex (min {lam.min()}, sum {lam.sum()})"]
    return []


def merge_child_trace(tracer, path: str, report_bytes: int) -> None:
    with open(path, encoding="utf-8") as fh:
        child = json.load(fh)
    os.remove(path)
    tracer.spans.extend(tuple(s) for s in child["spans"])
    for key, value in child["counts"].items():
        tracer.add(key, value)
    tracer.add("cli.report_bytes", report_bytes)


class OpError(Exception):
    """An op that did not return a result (a CLI exit code other than 0)."""


class NPSmooth:
    """Train one aggregate per op on fresh Gaussian data.

    Stumps at T quantiles per axis plus the constant -1, then solve_np.
    Three ops in four use logit with alpha cycling 0.6-0.9; the fourth uses
    exponential at alpha 0.7 or 0.9, where the known surrogate DomainError
    shows (it is counted, not avoided).
    """

    name = "np-smooth"
    index = 0
    # the exponential ops sit at i = 1, 5, 9, ... so that runs of 5 to 8
    # ops all hold two of them; the cheap alpha = 0.6 logit op comes third
    # so the median op stays a mid-alpha logit op as the run length varies
    LOGIT_ALPHAS = (0.7, 0.8, 0.6, 0.9)
    EXP_ALPHAS = (0.7, 0.9)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.n, self.d, self.t = (20_000, 1, 3) if smoke else (20_000, 5, 10)

    def schedule(self, i: int):
        if i % 4 == 1:
            return "exponential", self.EXP_ALPHAS[(i // 4) % 2]
        logit_before = i - (i + 2) // 4
        return "logit", self.LOGIT_ALPHAS[logit_before % 4]

    def prepare(self, i: int, tracer=None):
        kind, alpha = self.schedule(i)
        rng = np.random.default_rng([self.seed, self.index, i])
        neg = rng.normal(0.0, 1.0, (self.n, self.d))
        pos = rng.normal(0.7, 1.0, (self.n, self.d))
        pooled = np.vstack([neg, pos])
        sample = Sample(neg, pos)
        cfg = NPConfig(alpha=alpha, delta=0.1,
                       surrogate=logit() if kind == "logit" else exponential())

        def run():
            stumps = hypothesis.build_stump_dictionary(pooled, self.t)
            d = BaseDictionary([ConstantClassifier(-1.0), *stumps.bases], dim=self.d)
            return np_solver.solve_np(sample, d, cfg)

        def judge(sol):
            problems = simplex_problems(sol.weights.lam)
            if sol.status != "optimal":
                problems.append(f"status {sol.status}")
            if not sol.r_minus_phi <= sol.alpha_kappa + FEAS_TOL:
                problems.append(f"r_minus_phi {sol.r_minus_phi} > {sol.alpha_kappa}")
            digest = " ".join([kind, str(alpha), *map(fmt, sol.weights.lam),
                               fmt(sol.r_minus_phi), fmt(sol.r_plus_phi),
                               fmt(sol.alpha_kappa)])
            return problems, digest

        return run, judge


class CLISolveWide:
    """One `python -m npconvex solve` process per op on a wide labeled CSV.

    A fixed pair of CSVs (d=10, 2e4 rows per class, 50 stumps per axis so
    M=1001, hinge) is written at set-up and each is solved repeatedly, so
    every op pays the import and the CSV parse a CLI user pays.
    """

    name = "cli-solve-wide"
    index = 1
    ALPHAS = (0.35, 0.45)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.workdir = workdir
        n, d, self.stumps = (2_000, 2, 3) if smoke else (20_000, 10, 50)
        self.src = os.path.join(os.getcwd(), "src")
        for k in range(len(self.ALPHAS)):
            if os.path.exists(os.path.join(workdir, f"wide_{k}.csv")):
                continue  # written by an earlier process of this run
            rng = np.random.default_rng([seed, self.index, k])
            X = np.vstack([rng.normal(0.0, 1.0, (n, d)), rng.normal(0.7, 1.0, (n, d))])
            y = np.r_[-np.ones(n), np.ones(n)]
            with open(os.path.join(workdir, f"wide_{k}.csv"), "w", encoding="utf-8") as fh:
                fh.write(",".join([f"x{j}" for j in range(d)] + ["y"]) + "\n")
                np.savetxt(fh, np.column_stack([X, y]), fmt=["%.6f"] * d + ["%d"],
                           delimiter=",")

    def prepare(self, i: int, tracer=None):
        k = i % len(self.ALPHAS)
        args = ["solve", "--data", f"wide_{k}.csv", "--alpha", str(self.ALPHAS[k]),
                "--delta", "0.1", "--surrogate", "hinge", "--stumps", str(self.stumps),
                "--seed", "7", "--no-timestamp"]
        env = dict(os.environ, PYTHONPATH=self.src)
        if tracer is None:
            cmd = [sys.executable, "-m", "npconvex", *args]
        else:
            trace_file = os.path.join(self.workdir, f"trace_{i}.json")
            cmd = [sys.executable, os.path.join(HERE, "trace_cli.py"), trace_file, *args]

        def run():
            if tracer is not None:
                env["NPBENCH_TRACE_PARENT"] = tracer.current()[0]
                env["NPBENCH_TRACE_OP"] = str(tracer.op)
            return subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True,
                                  timeout=170)

        def judge(proc):
            if tracer is not None and os.path.exists(trace_file):
                merge_child_trace(tracer, trace_file, len(proc.stdout))
            if proc.returncode != 0:
                raise OpError(f"exit {proc.returncode}: "
                              f"{proc.stderr.decode(errors='replace').strip()[:200]}")
            try:
                sol = json.loads(proc.stdout)["solution"]
            except (ValueError, KeyError) as err:
                return [f"unparseable report: {err}"], ""
            problems = simplex_problems(sol["weights"])
            if sol["status"] != "optimal":
                problems.append(f"status {sol['status']}")
            if not sol["r_minus_phi"] <= sol["alpha_kappa"] + FEAS_TOL:
                problems.append(f"r_minus_phi {sol['r_minus_phi']} > {sol['alpha_kappa']}")
            first = os.path.join(self.workdir, f"wide_{k}.first.json")
            if not os.path.exists(first):
                with open(first, "wb") as fh:
                    fh.write(proc.stdout)
            with open(first, "rb") as fh:
                if fh.read() != proc.stdout:
                    problems.append(f"report for wide_{k}.csv differs from its first solve")
            return problems, hashlib.sha256(proc.stdout).hexdigest()

        return run, judge


class CCPMonteCarlo:
    """One harness.run_ccp_feasibility call per op: the criterion-9 setup.

    prop31(0.25) draws, per-row callable bases -1 and 2*xi - 1, hinge,
    n = 1e4, 1e5 validation draws, two trials per core.
    """

    name = "ccp-mc"
    index = 2

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.n, self.validation = (2_000, 5_000) if smoke else (10_000, 100_000)
        self.trials = 2 * (os.cpu_count() or 1)
        self.scenario = harness.Scenario.prop31(0.25)
        self.bases = [lambda row: -1.0, lambda row: 2.0 * float(np.ravel(row)[0]) - 1.0]

    def prepare(self, i: int, tracer=None):
        op_seed = int(np.random.SeedSequence([self.seed, self.index, i]).generate_state(1)[0])

        def run():
            with warnings.catch_warnings():
                # n = 1e4 is below ccp_bound's guarantee threshold, as in criterion 9
                warnings.simplefilter("ignore", UserWarning)
                return harness.run_ccp_feasibility(
                    self.scenario, self.bases, [1.0, 0.0], alpha=0.25, delta=0.1,
                    surrogate=hinge(), n=self.n, trials=self.trials,
                    validation_draws=self.validation, seed=op_seed,
                    f_star=0.75, eps=1e-12)

        def judge(out):
            problems = [f"trial {r['trial']}: {r['error']}" for r in out["rows"] if r["error"]]
            if not out["meets_target"]:
                problems.append(f"feasible frequency {out['feasible_frequency']} < target")
            if not out.get("all_gaps_within_bound"):
                problems.append("objective gap exceeds the bound")
            digest = " ".join([fmt(out["feasible_frequency"]),
                               fmt(out["mean_violation_rate"]), fmt(out["max_gap"]),
                               *(fmt(r["objective"]) for r in out["rows"])])
            return problems, digest

        return run, judge


class OracleReferee:
    """One solver-versus-oracle check per op.

    The criterion-5 NP and CCP loops (hinge, M in {2, 3}, resolution 1e-4),
    logit NP checks at M=3 (n=5000, resolution 1e-2, the non-affine scan),
    and criterion-6 gamma_curve calls on random atoms, in a fixed cycle.
    NP hinge checks at M=2 cost the same on any data, while those at M=3
    vary fourfold with it; the cycle holds enough M=2 checks that the
    median op of every run is one of them.
    """

    name = "oracle-referee"
    index = 3
    CYCLE = ("np2", "np3", "ccp2", "ccp3", "np2", "np2", "np3", "logit3", "np2", "gamma")

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        # the hinge checks keep criterion 5's resolution even in smoke mode:
        # a coarser grid cannot referee to 1e-3
        self.logit_n, self.logit_res = (1_000, 5e-2) if smoke else (5_000, 1e-2)

    def prepare(self, i: int, tracer=None):
        kind = self.CYCLE[i % len(self.CYCLE)]
        rng = np.random.default_rng([self.seed, self.index, i])
        if kind == "gamma":
            return self._gamma(rng)
        m = int(kind[-1])
        if kind.startswith("ccp"):
            return self._ccp(rng, m)
        if kind == "logit3":
            return self._np(rng, m, logit(), self.logit_n, self.logit_res, 0.9, kind)
        return self._np(rng, m, hinge(), 200, HINGE_RES,
                        0.85 if m == 2 else 0.9, kind)

    def _np(self, rng, m, s, n, res, alpha_lo, kind):
        # the anchor stump keeps the strengthened program feasible at n = 200
        bases = [DecisionStump(0, 0.995, -1)]
        for j in range(m - 1):
            bases.append(DecisionStump(0, float(rng.uniform(0.2, 0.9)),
                                       1 if j % 2 == 0 else -1))
        d = BaseDictionary(bases, dim=1)
        sample = Sample(rng.uniform(0, 1, (n, 1)), rng.uniform(0.1, 1.0, (n, 1)))
        cfg = NPConfig(alpha=float(rng.uniform(alpha_lo, 0.95)), delta=0.1, surrogate=s)

        def run():
            return (np_solver.solve_np(sample, d, cfg),
                    np_solver.grid_oracle_np(sample, d, cfg, resolution=res))

        def judge(out):
            sol, ref = out
            problems = []
            gap = sol.r_plus_phi - ref.r_plus_phi
            if s.affine_coefficients is not None and abs(gap) > ORACLE_TOL:
                problems.append(f"|solver - oracle| = {abs(gap)}")
            if s.affine_coefficients is None and gap > ORACLE_TOL:
                problems.append(f"solver exceeds oracle by {gap}")
            if not sol.r_minus_phi <= sol.alpha_kappa + FEAS_TOL:
                problems.append(f"r_minus_phi {sol.r_minus_phi} > {sol.alpha_kappa}")
            return problems, " ".join([kind, fmt(sol.r_plus_phi), fmt(ref.r_plus_phi),
                                       *map(fmt, sol.weights.lam)])

        return run, judge

    def _ccp(self, rng, m):
        n = 2000
        G = np.column_stack([-np.ones(n)] + [rng.uniform(-1.0, 1.0, n) for _ in range(m - 1)])
        inst = CCPInstance(alpha=float(rng.uniform(0.3, 0.45)), delta=0.1,
                           surrogate=hinge(), g_matrix=G,
                           **linear_objective(rng.uniform(-1.0, 1.0, m)))

        def run():
            return ccp.solve_ccp(inst), ccp.grid_oracle_ccp(inst, resolution=HINGE_RES)

        def judge(out):
            sol, ref = out
            problems = []
            if abs(sol.objective_value - ref.objective_value) > ORACLE_TOL:
                problems.append(
                    f"|solver - oracle| = {abs(sol.objective_value - ref.objective_value)}")
            if not sol.empirical_constraint_value <= sol.margin_level + FEAS_TOL:
                problems.append("solver violates the margin constraint")
            return problems, " ".join([f"ccp{m}", fmt(sol.objective_value),
                                       fmt(ref.objective_value), *map(fmt, sol.weights.lam)])

        return run, judge

    def _gamma(self, rng):
        d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)], dim=1)
        K = int(rng.integers(2, 5))
        H = rng.choice([-1.0, 1.0], size=(K, 2))
        H[:, 0] = -1.0
        atoms = (WeightedAtoms(H, rng.dirichlet(np.ones(K))),
                 WeightedAtoms(H, rng.dirichlet(np.ones(K))))
        levels = [0.06 + 0.02 * j for j in range(20)]

        def run():
            return bounds.gamma_curve(atoms, d, hinge(), levels, resolution=1e-3)

        def judge(curve):
            vals = [v for _, v in curve]
            finite = [v for v in vals if math.isfinite(v)]
            problems = []
            if any(a < b - 1e-9 for a, b in zip(finite, finite[1:])):
                problems.append("gamma curve increases")
            return problems, " ".join(["gamma", *(fmt(v) if math.isfinite(v) else "inf"
                                                 for v in vals)])

        return run, judge


WORKLOADS = {w.name: w for w in (NPSmooth, CLISolveWide, CCPMonteCarlo, OracleReferee)}
