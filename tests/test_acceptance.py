"""End-to-end acceptance checks, one numbered test per criterion.

Each test is tagged with its criterion number; the terminal summary
prints one PASS/FAIL line per number.  Statistical assertions use the
three-standard-error allowances computed inside the runners.
"""

from __future__ import annotations

import json
import math
import time
import warnings

import numpy as np
import pytest

from npconvex.bounds import (check_rademacher_vertex_identity,
                             check_sup_deviation, gamma_curve, check_prop42,
                             sweep_binomial_lemmas)
from npconvex.ccp import (CCPInstance, grid_oracle_ccp, linear_objective,
                          solve_ccp)
from npconvex.errors import SampleTooSmall
from npconvex.harness import (Scenario, run_ccp_feasibility,
                              run_counterexample, run_rate_experiment,
                              run_sampling_scheme, run_type1_coverage)
from npconvex.hypothesis import (BaseDictionary, ConstantClassifier,
                                 DecisionStump)
from npconvex.np_solver import (NPConfig, grid_oracle_np, kappa, solve_np)
from npconvex.risk import Sample, WeightedAtoms
from npconvex.surrogate import hinge

SEED = 20260822


@pytest.mark.criterion(1)
def test_criterion_01_binomial_lemma_sweep():
    t0 = time.monotonic()
    out = sweep_binomial_lemmas(n_max=200, q_points=50, t_points=4)
    elapsed = time.monotonic() - t0
    assert out["all_hold"]
    assert out["violations"] == []
    assert out["checks"] == 200 * 50 * 5
    # both worst cases still clear their bounds
    assert out["worst_bin"]["holds"] and out["worst_bin2"]["holds"]
    assert elapsed < 30.0


@pytest.mark.criterion(2)
def test_criterion_02_counterexample_reproduction():
    t0 = time.monotonic()
    out = run_counterexample(0.2, 500, 500, trials=10 ** 4, seed=SEED)
    elapsed = time.monotonic() - t0
    # on every event-and-binding trial the measured excess equals alpha
    # to machine precision
    assert out["binding_count"] > 0
    assert out["excess_exact_on_binding"]
    assert out["max_excess_error_on_binding"] <= 1e-12
    for row in out["rows"]:
        if row["event"]:
            assert row["binding"]
            assert abs(row["excess"] - 0.2) <= 1e-12
    # the event frequency clears the distribution-free floor and matches
    # the exact binomial probability
    assert out["meets_lower_bound"]
    assert out["matches_exact_probability"]
    assert out["exact_event_probability"] == pytest.approx(
        0.517836321565467, rel=1e-13)
    assert elapsed < 120.0


def _gaussian_stump_dictionary():
    thresholds = [0.8, 1.0, 1.2815515655446004, 1.5, 3.5]
    bases = []
    for t in thresholds:
        for pol in (1, -1):
            bases.append(DecisionStump(0, t, pol))
    return BaseDictionary(bases, dim=1)  # M = 10


@pytest.mark.criterion(3)
def test_criterion_03_type1_coverage_small_n_is_vacuous():
    # at n^- = 5000 the strengthened level alpha - kappa/sqrt(n^-) is
    # negative (kappa(1, 10, 0.1)/sqrt(5000) = 0.184 > alpha = 0.1), so
    # the program the guarantee speaks about does not exist at this size
    scen = Scenario.gaussian_1d(0.0, 2.0, 1.0)
    d = _gaussian_stump_dictionary()
    cfg = NPConfig(alpha=0.1, delta=0.1, surrogate=hinge())
    assert kappa(1.0, 10, 0.1) / math.sqrt(5000) > 0.1
    with pytest.raises(SampleTooSmall):
        run_type1_coverage(scen, d, cfg, 5000, 5000, trials=1,
                           mc_draws=10 ** 4, seed=SEED)


@pytest.mark.criterion(3)
def test_criterion_03_type1_coverage_at_sufficient_n():
    # the same instance at the smallest power-of-ten-ish size where the
    # level is positive: coverage of the true phi-type-I constraint must
    # reach 1 - delta, and conservativeness should push it to one
    t0 = time.monotonic()
    scen = Scenario.gaussian_1d(0.0, 2.0, 1.0)
    d = _gaussian_stump_dictionary()
    cfg = NPConfig(alpha=0.1, delta=0.1, surrogate=hinge())
    out = run_type1_coverage(scen, d, cfg, 50000, 50000, trials=100,
                             mc_draws=10 ** 5, seed=SEED)
    elapsed = time.monotonic() - t0
    assert out["completed"] == 100
    assert out["solver_errors"] == {}
    assert out["coverage"] >= out["target"] == 0.9
    assert out["meets_target"]
    # the Monte Carlo reference is the population here, not atoms
    assert not out["exact_population"]
    assert out["mean_true_type1"] < cfg.alpha
    assert elapsed < 600.0


def _prop31_pair_dictionary(alpha):
    return BaseDictionary(
        [ConstantClassifier(-1.0), DecisionStump(0, alpha, 1)], dim=1)


@pytest.mark.criterion(4)
def test_criterion_04_excess_type2_bound():
    t0 = time.monotonic()
    scen = Scenario.prop31(0.5)
    d = _prop31_pair_dictionary(0.5)
    cfg = NPConfig(alpha=0.5, delta=0.2, surrogate=hinge())
    out = run_rate_experiment(scen, d, cfg, n_grid=[10 ** 4], trials=100,
                              seed=SEED, eps_bar=0.0,
                              oracle_resolution=1e-4)
    elapsed = time.monotonic() - t0
    # population optimum gamma(1/2) = 3/2, computed by the grid oracle
    assert out["gamma_alpha"] == pytest.approx(1.5, abs=1e-9)
    assert out["exact_population"]
    rows = [r for r in out["rows"] if r["error"] is None]
    assert len(rows) == 100
    bound = rows[0]["bound"]
    assert bound == pytest.approx(1.7623777180901879, rel=1e-12)
    # n = 10^4 clears the n0 threshold, so every row is asserted
    assert rows[0]["n0"] == 6136
    assert out["asserted_rows"] == 100
    assert out["all_within_bound"]
    assert max(r["excess"] for r in rows) <= bound
    # typical excess is far under the bound
    assert out["per_n"][10 ** 4]["median_excess"] <= bound / 10.0
    assert elapsed < 300.0


@pytest.mark.criterion(5)
def test_criterion_05_np_solver_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    solved = 0
    for trial in range(50):
        m = 2 + trial % 2
        # an anchor stump with near-zero empirical type-I risk keeps the
        # strengthened program feasible at n = 200
        bases = [DecisionStump(0, 0.995, -1)]
        for j in range(m - 1):
            bases.append(DecisionStump(0, float(rng.uniform(0.2, 0.9)),
                                       1 if j % 2 == 0 else -1))
        d = BaseDictionary(bases, dim=1)
        neg = rng.uniform(0, 1, (200, 1))
        pos = rng.uniform(0.1, 1.0, (200, 1))
        alpha = float(rng.uniform(0.85, 0.95)) if m == 2 else \
            float(rng.uniform(0.9, 0.95))
        cfg = NPConfig(alpha=alpha, delta=0.1, surrogate=hinge())
        sol = solve_np(Sample(neg, pos), d, cfg)
        ref = grid_oracle_np(Sample(neg, pos), d, cfg, resolution=1e-4)
        assert abs(sol.r_plus_phi - ref.r_plus_phi) <= 1e-3
        assert sol.r_minus_phi <= sol.alpha_kappa + 1e-8
        solved += 1
    assert solved == 50
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0


@pytest.mark.criterion(5)
def test_criterion_05_ccp_solver_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 1)
    n = 2000
    for trial in range(50):
        m = 2 + trial % 2
        cols = [-np.ones(n)]
        for _ in range(m - 1):
            cols.append(rng.uniform(-1.0, 1.0, n))
        G = np.column_stack(cols)
        coeffs = rng.uniform(-1.0, 1.0, m)
        alpha = float(rng.uniform(0.3, 0.45))
        inst = CCPInstance(alpha=alpha, delta=0.1, surrogate=hinge(),
                           g_matrix=G, **linear_objective(coeffs))
        sol = solve_ccp(inst)
        ref = grid_oracle_ccp(inst, resolution=1e-4)
        assert abs(sol.objective_value - ref.objective_value) <= 1e-3
        assert sol.empirical_constraint_value <= sol.margin_level + 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0


@pytest.mark.criterion(6)
def test_criterion_06_gamma_inequality():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 2)
    s = hinge()
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)],
                       dim=1)
    for _ in range(20):
        K = int(rng.integers(2, 5))
        H = rng.choice([-1.0, 1.0], size=(K, 2))
        H[:, 0] = -1.0  # keep the first base the constant -1
        w_minus = rng.dirichlet(np.ones(K))
        w_plus = rng.dirichlet(np.ones(K))
        atoms = (WeightedAtoms(H, w_minus), WeightedAtoms(H, w_plus))
        # the constant -1 base zeroes the best type-I risk, so levels
        # down to 0.06 stay reachable
        alpha, nu0 = 0.3, 0.24
        nus = [nu0 * i / 21.0 for i in range(1, 21)]
        xs = sorted({alpha, alpha - nu0} | {alpha - nu for nu in nus})
        curve = gamma_curve(atoms, d, s, xs, resolution=1e-3)
        res = check_prop42(curve, alpha, nu0, nus, phi_at_one=2.0, slack=5e-3)
        assert res.holds
        # non-increasing with midpoint convexity along a uniform level grid
        levels = [0.06 + 0.02 * i for i in range(20)]
        vals = [v for _, v in gamma_curve(atoms, d, s, levels,
                                          resolution=1e-3)]
        finite = [v for v in vals if math.isfinite(v)]
        assert all(x >= y - 1e-9 for x, y in zip(finite, finite[1:]))
        for i in range(1, len(vals) - 1):
            trio = vals[i - 1], vals[i], vals[i + 1]
            if all(math.isfinite(v) for v in trio):
                assert trio[1] <= (trio[0] + trio[2]) / 2.0 + 5e-3
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0


@pytest.mark.criterion(7)
def test_criterion_07_sup_deviation_and_rademacher():
    t0 = time.monotonic()
    scen = Scenario.prop31(0.3)
    d = _prop31_pair_dictionary(0.3)
    out = check_sup_deviation(scen, d, hinge(), n=10 ** 3, delta=0.1,
                              trials=500, seed=SEED)
    assert out["trials"] == 500
    assert out["threshold"] == pytest.approx(0.34357552667739, rel=1e-12)
    assert out["violation_rate"] <= 0.1
    assert out["violation_rate"] == 0.0  # the bound is very conservative
    assert out["max_sup"] < out["threshold"]
    rng = np.random.default_rng(SEED + 3)
    data = rng.uniform(0, 1, (10 ** 3, 1))
    assert check_rademacher_vertex_identity(d, data, seed=SEED + 4,
                                            trials=10 ** 3)
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0


@pytest.mark.criterion(8)
def test_criterion_08_pooled_sampling_scheme():
    t0 = time.monotonic()
    scen = Scenario.prop31(0.5)
    d = _prop31_pair_dictionary(0.5)
    cfg = NPConfig(alpha=0.5, delta=0.2, surrogate=hinge())
    n = 2 * 10 ** 4
    # n sits below the 2*n0/(1-p) validity threshold 24544, which the
    # runner reports in its summary, not as a warning, while still
    # executing the experiment
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run_sampling_scheme(scen, d, cfg, n=n, trials=100, seed=SEED,
                                  eps_bar=0.0)
    elapsed = time.monotonic() - t0
    assert not out["meets_n0_precondition"]
    assert out["solver_errors"] == {}
    # joint event: type-I within its allowance and the sqrt(2)-inflated
    # excess bound holding
    assert out["threshold"] == pytest.approx(0.6, abs=1e-9)
    assert out["meets_threshold"]
    assert out["joint_frequency"] >= 0.6
    # class-count tails against exact binomial values
    tails = out["tails"]
    assert [t["threshold"] for t in tails] == [5000.0, 10000.0, 10100.0]
    assert tails[0]["exact_probability"] == pytest.approx(1.0, abs=1e-12)
    assert tails[1]["exact_probability"] == pytest.approx(
        0.50282091265611, rel=1e-12)
    assert tails[2]["exact_probability"] == pytest.approx(
        0.0796917179923669, rel=1e-12)
    for t in tails:
        assert t["matches"]
    assert elapsed < 600.0


class _AffineXi:
    """Vectorized constraint base g(xi) = 2 xi - 1 on the first feature."""

    def evaluate_batch(self, X):
        return 2.0 * X[:, 0] - 1.0

    def min_dim(self):
        return 1


@pytest.mark.criterion(9)
def test_criterion_09_ccp_chance_feasibility():
    t0 = time.monotonic()
    # F(lam, xi) = -lam1 + lam2*(2 xi - 1), xi uniform on [0, 1]:
    # the population hinge constraint is 1 - lam1 <= alpha, so
    # f*_phi = 1 - alpha = 0.75 for the objective f(lam) = lam1; the
    # population constraint minimum is 0, so the analytic eps is 0 and
    # is passed as 1e-12 to stay inside the bound's open domain, which
    # also puts n = 10^4 below the guarantee threshold n0 = 30220, which
    # the runner reports in its summary, not as a warning
    scen = Scenario.prop31(0.25)
    bases = BaseDictionary([ConstantClassifier(-1.0), _AffineXi()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run_ccp_feasibility(scen, bases, [1.0, 0.0], alpha=0.25,
                                  delta=0.1, surrogate=hinge(), n=10 ** 4,
                                  trials=200, validation_draws=10 ** 5,
                                  seed=SEED, f_star=0.75, eps=1e-12)
    elapsed = time.monotonic() - t0
    assert not out["meets_n0_precondition"]
    rows = [r for r in out["rows"] if r["error"] is None]
    assert len(rows) == 200
    assert out["feasible_frequency"] >= out["target"] == 0.8
    assert out["meets_target"]
    # the margin drives every solution strictly inside the true
    # constraint: zero violations on fresh draws
    assert out["mean_violation_rate"] == 0.0
    assert out["bound"] == pytest.approx(3.476739880295986, rel=1e-10)
    assert out["all_gaps_within_bound"]
    assert out["max_gap"] <= out["bound"]
    assert elapsed < 300.0


@pytest.mark.criterion(10)
def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, capsys):
    from npconvex.cli import main

    rng = np.random.default_rng(SEED + 5)
    train = tmp_path / "train.csv"
    lines = ["x0,y"]
    for x in rng.uniform(0, 1, 3000):
        lines.append(f"{x:.6f},-1")
    for x in np.clip(rng.uniform(0.3, 1.3, 3000), 0, 1):
        lines.append(f"{x:.6f},1")
    train.write_text("\n".join(lines) + "\n", encoding="utf-8")
    draws = tmp_path / "draws.csv"
    draws.write_text("\n".join(["x0"] + [f"{x:.6f}" for x in
                                         rng.uniform(0, 1, 2000)]) + "\n",
                     encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.25, "n_minus": 250, "n_plus": 250,
                               "trials": 60}), encoding="utf-8")

    def run_all(tag):
        s = tmp_path / f"solve_{tag}.json"
        c = tmp_path / f"ccp_{tag}.json"
        v = tmp_path / f"ver_{tag}.json"
        e = tmp_path / f"exp_{tag}"
        assert main(["solve", "--data", str(train), "--alpha", "0.45",
                     "--delta", "0.1", "--stumps", "3", "--seed", "11",
                     "--no-timestamp", "--out", str(s)]) == 0
        assert main(["ccp", "--data", str(draws), "--alpha", "0.45",
                     "--delta", "0.1", "--stumps", "2", "--objective",
                     "0.4,-0.2,0.3,0.1,-0.5", "--seed", "11",
                     "--no-timestamp", "--out", str(c)]) == 0
        assert main(["verify-lemmas", "--n-max", "25", "--q-points", "6",
                     "--t-points", "2", "--no-timestamp",
                     "--out", str(v)]) == 0
        assert main(["experiment", "--kind", "counterexample", "--config",
                     str(cfg), "--seed", "11", "--no-timestamp",
                     "--out", str(e)]) == 0
        return (s.read_bytes(), c.read_bytes(), v.read_bytes(),
                (e / "summary.json").read_bytes(),
                (e / "trials.csv").read_bytes())

    assert run_all("a") == run_all("b")

    # CSV schema violations exit with code 2 and a machine-readable error
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,y\n0.1\n", encoding="utf-8")
    rc = main(["solve", "--data", str(bad), "--alpha", "0.3", "--delta", "0.1"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "schema"
    rc = main(["solve", "--data", str(draws), "--alpha", "0.3",
               "--delta", "0.1"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "schema"
