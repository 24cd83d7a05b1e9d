"""Scenario generators, experiment runners, and the likelihood-ratio floor."""

from __future__ import annotations

import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from npconvex import _solver_core as core
from npconvex import harness
from npconvex.errors import DomainError, SampleTooSmall, UnknownScenario
from npconvex.harness import (Scenario, np_lemma_oracle, oracle_type2_mc,
                              run_ccp_feasibility, run_counterexample,
                              run_rate_experiment, run_sampling_scheme,
                              run_type1_coverage)
from npconvex.hypothesis import (BaseDictionary, ConstantClassifier,
                                 DecisionStump)
from npconvex.np_solver import (NPConfig, alpha_kappa, feasibility_probe,
                                kappa)
from npconvex.risk import empirical_atoms
from npconvex.surrogate import hinge, logit


def test_scenario_validation():
    with pytest.raises(DomainError):
        Scenario.prop31(0.0)
    with pytest.raises(DomainError):
        Scenario.prop31(0.3, p=1.0)
    with pytest.raises(DomainError):
        Scenario.gaussian_1d(0.0, 2.0, 0.0)
    # a NaN mean would draw only NaN negatives, which every stump scores
    # as above its threshold
    for params in ((math.nan, 2.0, 1.0), (0.0, math.inf, 1.0),
                   (-math.inf, 2.0, 1.0), (0.0, 2.0, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            Scenario.gaussian_1d(*params)
    with pytest.raises(DomainError):
        Scenario.custom_csv(np.empty((0, 1)), np.ones((3, 1)))


def test_scenario_draw_shapes_and_determinism():
    scen = Scenario.gaussian_1d(0.0, 2.0, 1.0)
    rng = np.random.default_rng(1)
    X = scen.draw_negatives(rng, 50)
    assert X.shape == (50, 1)
    a = scen.draw_positives(np.random.default_rng(7), 20)
    b = scen.draw_positives(np.random.default_rng(7), 20)
    assert np.array_equal(a, b)


def test_draw_pooled_split():
    scen = Scenario.prop31(0.3, p=0.25)
    rng = np.random.default_rng(3)
    X, y = scen.draw_pooled(rng, 4000)
    assert X.shape == (4000, 1)
    assert set(np.unique(y)) == {-1.0, 1.0}
    frac_pos = float(np.mean(y == 1.0))
    assert abs(frac_pos - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 4000)


def test_custom_csv_bootstrap():
    neg = np.array([[0.1], [0.2]])
    pos = np.array([[0.9]])
    scen = Scenario.custom_csv(neg, pos)
    rng = np.random.default_rng(0)
    draws = scen.draw_negatives(rng, 100)
    assert set(np.unique(draws)) <= {0.1, 0.2}
    assert np.all(scen.draw_positives(rng, 10) == 0.9)


def test_custom_csv_reads_one_dimensional_classes_as_columns():
    # as Sample and BaseDictionary do: n values of one feature, not one row
    scen = Scenario.custom_csv([0.1, 0.2, 0.3], [0.5, 0.6])
    rng = np.random.default_rng(2)
    assert scen.draw_negatives(rng, 4).shape == (4, 1)
    X, _ = scen.draw_pooled(rng, 6)
    assert X.shape == (6, 1)
    assert set(np.unique(scen.draw_positives(rng, 50))) <= {0.5, 0.6}


def test_prop31_population_atoms_match_closed_form():
    alpha = 0.3
    scen = Scenario.prop31(alpha)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, alpha, 1)],
                       dim=1)
    atoms = scen.population_atoms(d, "minus")
    assert atoms.weights.sum() == pytest.approx(1.0, abs=1e-12)
    s = hinge()
    # lam = (0, 1) is the stump alone: R_phi^- = alpha*phi(1) + (1-alpha)*phi(-1)
    lam = np.array([0.0, 1.0])
    assert atoms.phi_risk(lam, s, +1.0) == pytest.approx(2.0 * alpha, abs=1e-12)
    # the constant classifier has zero hinge type-I risk
    lam = np.array([1.0, 0.0])
    assert atoms.phi_risk(lam, s, +1.0) == pytest.approx(0.0, abs=1e-12)


def test_gaussian_population_atoms_match_monte_carlo():
    scen = Scenario.gaussian_1d(0.0, 2.0, 1.0)
    d = BaseDictionary([DecisionStump(0, 0.8, 1), DecisionStump(0, 1.5, -1)],
                       dim=1)
    atoms = scen.population_atoms(d, "plus")
    assert atoms.weights.sum() == pytest.approx(1.0, abs=1e-12)
    s = hinge()
    lam = np.array([0.4, 0.6])
    exact = atoms.phi_risk(lam, s, -1.0)
    rng = np.random.default_rng(8)
    X = scen.draw_positives(rng, 4 * 10 ** 5)
    H = d.evaluate_matrix(X)
    mc = float(np.mean(s.eval(-(H @ lam))))
    assert abs(exact - mc) < 0.01


@pytest.mark.parametrize("scen", [Scenario.prop31(0.3),
                                  Scenario.gaussian_1d(0.0, 2.0, 1.0)],
                         ids=["prop31", "gaussian_1d"])
@pytest.mark.parametrize("side", ["minus", "plus"])
def test_population_atoms_match_monte_carlo_at_extreme_thresholds(scen, side):
    # every interval takes its stumps' values at its right end, so a stump
    # at -inf reads -polarity on (-inf, -1]; a representative at -inf read
    # +polarity there, and the first stump's exact Gaussian hinge type-I
    # risk came out positive where Monte Carlo gives 0
    d = BaseDictionary([DecisionStump(0, -math.inf, 1), DecisionStump(0, -1.0, -1),
                        DecisionStump(0, 0.5, 1), DecisionStump(0, 0.5, -1),
                        DecisionStump(0, 2.0, 1), DecisionStump(0, math.inf, -1),
                        ConstantClassifier(0.3)], dim=1)
    exact = scen.population_atoms(d, side)
    draw = scen.draw_negatives if side == "minus" else scen.draw_positives
    mc = empirical_atoms(d.evaluate_matrix(draw(np.random.default_rng(6), 2 * 10 ** 5)))
    exact_law = {tuple(h): w for h, w in zip(exact.H, exact.weights)}
    mc_law = {tuple(h): w for h, w in zip(mc.H, mc.weights)}
    for row in exact_law.keys() | mc_law.keys():
        assert abs(exact_law.get(row, 0.0) - mc_law.get(row, 0.0)) < 0.005, row
    sign = 1.0 if side == "minus" else -1.0
    for lam in np.vstack([np.eye(d.m), np.full(d.m, 1.0 / d.m)]):
        assert exact.phi_risk(lam, hinge(), sign) == pytest.approx(
            mc.phi_risk(lam, hinge(), sign), abs=0.01)


def test_population_atoms_reject_general_bases():
    scen = Scenario.prop31(0.3)

    class Smooth:
        def evaluate_batch(self, X):
            return np.tanh(X[:, 0])

        def min_dim(self):
            return 1

    d = BaseDictionary([Smooth()])
    with pytest.raises(DomainError):
        scen.population_atoms(d, "minus")


def test_counterexample_small_run():
    out = run_counterexample(0.25, 400, 400, trials=200, seed=5)
    assert out["trials"] == 200
    assert len(out["rows"]) == 200
    # the identity excess = alpha on binding trials is exact
    assert out["excess_exact_on_binding"]
    assert out["max_excess_error_on_binding"] <= 1e-12
    # frequency agrees with the exact binomial computation
    assert out["matches_exact_probability"]
    assert out["meets_lower_bound"]
    # every event trial is a binding trial
    for row in out["rows"]:
        if row["event"]:
            assert row["binding"]


def test_counterexample_validation():
    with pytest.raises(DomainError):
        run_counterexample(0.6, 400, 400, trials=10, seed=0)
    with pytest.raises(DomainError):
        run_counterexample(0.25, 400, 400, trials=10, seed=0, tau=0.3)


def test_coverage_exact_path():
    scen = Scenario.prop31(0.3)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.3, 1)],
                       dim=1)
    cfg = NPConfig(alpha=0.3, delta=0.1, surrogate=hinge())
    out = run_type1_coverage(scen, d, cfg, 8000, 8000, trials=15,
                             mc_draws=10 ** 4, seed=2)
    assert out["exact_population"]
    assert out["completed"] == 15
    assert out["coverage"] >= out["target"]
    assert out["mean_half_width"] == 0.0
    assert len(out["rows"]) == 15


def test_coverage_sample_too_small():
    scen = Scenario.prop31(0.3)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.3, 1)],
                       dim=1)
    cfg = NPConfig(alpha=0.1, delta=0.1, surrogate=hinge())
    with pytest.raises(SampleTooSmall):
        run_type1_coverage(scen, d, cfg, 1000, 1000, trials=5,
                           mc_draws=10 ** 4, seed=2)


def test_coverage_counts_failed_trials_as_error_rows(monkeypatch):
    # every runner returns one dict row per trial, so a failed coverage
    # trial shows in the rows the trial loop hands back
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.3, 1)],
                       dim=1)
    cfg = NPConfig(alpha=0.3, delta=0.1, surrogate=hinge())
    solve, run_trials = harness._solve_np, harness._run_trials
    solves, loop_rows = [], []

    def odd_trials_fail(*args):
        solves.append(1)
        if len(solves) % 2 == 0:  # one worker: call k is trial k - 1
            raise SampleTooSmall("forced")
        return solve(*args)

    def spied_run_trials(fn, trials):
        loop_rows.extend(run_trials(fn, trials))
        return loop_rows

    monkeypatch.setenv("NP_THREADS", "1")
    monkeypatch.setattr(harness, "_solve_np", odd_trials_fail)
    monkeypatch.setattr(harness, "_run_trials", spied_run_trials)
    out = run_type1_coverage(Scenario.prop31(0.3), d, cfg, 8000, 8000, trials=5,
                             mc_draws=10 ** 4, seed=2)
    assert all(isinstance(r, dict) for r in loop_rows)
    assert [r for r in loop_rows if r["error"]] == [
        {"trial": 1, "error": "SampleTooSmall"}, {"trial": 3, "error": "SampleTooSmall"}]
    assert out["rows"] == loop_rows
    assert out["solver_errors"] == {"SampleTooSmall": 2}
    assert out["completed"] == 3
    assert out["coverage"] == sum(r.get("covered", False) for r in loop_rows) / 5


def test_coverage_kappa_ablation_hurts():
    # dropping the kappa margin (scale 0) must lose the conservativeness
    # cushion: the un-margined solve sits at the constraint boundary, so
    # its true type-I risk hugs alpha instead of alpha_kappa
    scen = Scenario.prop31(0.4)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.4, 1)],
                       dim=1)
    cfg = NPConfig(alpha=0.4, delta=0.1, surrogate=hinge())
    full = run_type1_coverage(scen, d, cfg, 4000, 4000, trials=10,
                              mc_draws=10 ** 4, seed=9)
    bare = run_type1_coverage(scen, d, cfg, 4000, 4000, trials=10,
                              mc_draws=10 ** 4, seed=9, kappa_scale=0.0)
    assert full["mean_true_type1"] < bare["mean_true_type1"]
    level = alpha_kappa(0.4, kappa(1.0, 2, 0.1), 4000)
    assert full["mean_true_type1"] <= level + 0.02
    assert bare["mean_true_type1"] >= level + 0.02


def test_gamma_oracle_is_independent_of_the_solver(monkeypatch):
    # the Monte Carlo hinge gamma evaluates its risks itself, never
    # through the solver's form builder
    from npconvex import _solver_core as core

    def forbidden(*args, **kwargs):
        raise AssertionError("the gamma oracle must not build solver forms")

    monkeypatch.setattr(core, "risk_form", forbidden)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 1.0, 1)], dim=1)
    minus, plus, gamma_alpha = harness._population_reference(
        Scenario.gaussian_1d(0.0, 2.0, 1.0), d, hinge(), 0.5, 1e-2,
        mc_draws=5000, seed=3)
    assert math.isfinite(gamma_alpha)
    assert minus.n == plus.n == 5000


def test_runners_reject_fewer_than_two_mc_draws(monkeypatch):
    # one draw has no sample variance and zero has no mean: refused before
    # any scenario draw
    def no_draws(*args):
        raise AssertionError("drew before checking mc_draws")

    scen = Scenario.gaussian_1d(0.0, 2.0, 1.0)
    monkeypatch.setattr(scen, "_draw", no_draws)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 1.0, 1)], dim=1)
    cfg = NPConfig(alpha=0.3, delta=0.1, surrogate=hinge())
    for draws in (0, 1):
        with pytest.raises(DomainError, match="Monte Carlo draws"):
            run_type1_coverage(scen, d, cfg, 100, 100, trials=1, mc_draws=draws, seed=1)
        with pytest.raises(DomainError, match="Monte Carlo draws"):
            run_rate_experiment(scen, d, cfg, [100], trials=1, seed=1, mc_draws=draws)
        with pytest.raises(DomainError, match="Monte Carlo draws"):
            run_sampling_scheme(scen, d, cfg, 100, trials=1, seed=1, mc_draws=draws)


def test_smooth_monte_carlo_gamma_runs_at_the_default_draws():
    # 10^6 reference draws through three stump bases merge into at most four
    # atoms per class, so logit gamma at M = 3 needs no coarser grid
    scen = Scenario.gaussian_1d(0.0, 2.0, 1.0)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 1.0, 1),
                        DecisionStump(0, 1.0, -1)], dim=1)
    cfg = NPConfig(alpha=0.8, delta=0.1, surrogate=logit())
    out = run_rate_experiment(scen, d, cfg, [2000], trials=1, seed=2,
                              oracle_resolution=1e-2)
    assert math.isfinite(out["gamma_alpha"])
    assert not out["exact_population"]
    row = out["rows"][0]
    assert row["error"] is None and 0.0 < row["half_width"] < 0.01


def _eps_bar_runs(scen, d, cfg):
    rate = run_rate_experiment(scen, d, cfg, [4000, 9000], trials=2, seed=4,
                               eps_bar=None, oracle_resolution=1e-2)
    with warnings.catch_warnings():  # n below the threshold is no warning
        warnings.simplefilter("error")
        pooled = run_sampling_scheme(scen, d, cfg, 8000, trials=2, seed=4,
                                     eps_bar=None, oracle_resolution=1e-2)
    return rate, pooled


def test_hinge_np_callers_read_column_means_only(monkeypatch):
    # on an affine surrogate the probe, the coverage pilot and solves (at
    # every kappa scale) and the eps-bar minima never build an H-based form
    from npconvex import _solver_core as core

    def forbidden(*args, **kwargs):
        raise AssertionError("hinge NP callers must not build H-based forms")

    monkeypatch.setattr(core, "risk_form", forbidden)
    scen = Scenario.prop31(0.4)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.4, 1)],
                       dim=1)
    cfg = NPConfig(alpha=0.4, delta=0.1, surrogate=hinge())
    probe = feasibility_probe(scen.draw_negatives(np.random.default_rng(0), 4000),
                              d, cfg, 0.9)
    assert probe["feasible"]
    for scale in (1.0, 0.0):
        out = run_type1_coverage(scen, d, cfg, 4000, 4000, trials=3,
                                 mc_draws=10 ** 4, seed=9, kappa_scale=scale)
        assert out["completed"] == 3
    for out in _eps_bar_runs(scen, d, cfg):
        assert all(r["error"] is None for r in out["rows"])


def test_estimated_eps_bar_is_the_margin_when_type1_can_vanish():
    # the constant -1 base has hinge type-I risk exactly 0, so the
    # estimate (min risk + kappa/sqrt(n^-))/alpha is the margin term alone
    scen = Scenario.prop31(0.4)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.4, 1)],
                       dim=1)
    cfg = NPConfig(alpha=0.4, delta=0.1, surrogate=hinge())
    rate, pooled = _eps_bar_runs(scen, d, cfg)
    kap = kappa(1.0, 2, 0.1)
    assert [r["eps_bar"] for r in rate["rows"]] == [
        (kap / math.sqrt(r["n"])) / 0.4 for r in rate["rows"]]
    assert [r["eps_bar"] for r in pooled["rows"]] == [
        (kap / math.sqrt(r["n_minus"])) / 0.4 for r in pooled["rows"]]
    assert len(rate["rows"]) == 4 and len(pooled["rows"]) == 2


def test_np_lemma_oracle_identical_classes():
    out = np_lemma_oracle(Scenario.prop31(0.35), 0.35)
    assert out == {"threshold": 1.0, "randomization": 0.35,
                   "type2_error": 0.65, "direction": 0}
    same = np_lemma_oracle(Scenario.gaussian_1d(1.0, 1.0, 2.0), 0.2)
    assert same["type2_error"] == pytest.approx(0.8)


def test_np_lemma_oracle_gaussian_frozen():
    out = np_lemma_oracle(Scenario.gaussian_1d(0.0, 2.0, 1.0), 0.1)
    z = 1.2815515655446004  # standard normal 90th percentile
    assert out["x_star"] == pytest.approx(z, abs=1e-12)
    assert out["type2_error"] == pytest.approx(0.23624041589411687, abs=1e-12)
    assert out["direction"] == 1
    assert out["randomization"] == 0.0
    # threshold equals the likelihood ratio at x_star
    want = math.exp((z * z - (z - 2.0) ** 2) / 2.0)
    assert out["threshold"] == pytest.approx(want, rel=1e-12)


def test_np_lemma_oracle_flipped_means():
    out = np_lemma_oracle(Scenario.gaussian_1d(2.0, 0.0, 1.0), 0.1)
    sym = np_lemma_oracle(Scenario.gaussian_1d(0.0, 2.0, 1.0), 0.1)
    assert out["direction"] == -1
    assert out["type2_error"] == pytest.approx(sym["type2_error"], abs=1e-12)
    with pytest.raises(UnknownScenario):
        np_lemma_oracle(Scenario.custom_csv(np.zeros((2, 1)), np.ones((2, 1))),
                        0.1)


def test_oracle_type2_mc_agrees():
    scen = Scenario.gaussian_1d(0.0, 2.0, 1.0)
    want = np_lemma_oracle(scen, 0.1)["type2_error"]
    est, hw = oracle_type2_mc(scen, 0.1, draws=2 * 10 ** 5, seed=4)
    assert abs(est - want) <= 4 * hw
    est_r, _ = oracle_type2_mc(Scenario.prop31(0.3), 0.3, draws=10 ** 5, seed=4)
    assert abs(est_r - 0.7) < 0.01


def test_oracle_type2_mc_needs_two_draws_before_drawing():
    # one draw has no half-width and none has no mean; both are refused
    # before the scenario is sampled
    scen = Scenario.gaussian_1d(0.0, 2.0, 1.0)
    drawn = []
    scen.draw_positives = lambda rng, m: drawn.append(m)
    for draws in (1, 0, -3):
        with pytest.raises(DomainError, match="draws"):
            oracle_type2_mc(scen, 0.1, draws=draws, seed=4)
        with pytest.raises(DomainError, match="draws"):
            oracle_type2_mc(Scenario.prop31(0.3), 0.3, draws=draws, seed=4)
    assert drawn == []


def test_most_powerful_test_floors_aggregation():
    # no aggregated classifier can beat the likelihood-ratio floor: the
    # coverage runner's true type-II risk (0/1, via the population atoms)
    # must sit above the oracle's type-II error
    alpha = 0.1
    scen = Scenario.gaussian_1d(0.0, 2.0, 1.0)
    floor = np_lemma_oracle(scen, alpha)["type2_error"]
    # polarity -1 rejects (reads +1) exactly on x above the threshold
    d = BaseDictionary([DecisionStump(0, 1.2815515655446004, -1),
                        ConstantClassifier(-1.0)], dim=1)
    atoms = scen.population_atoms(d, "plus")
    # the best candidate here is the oracle threshold stump itself
    lam = np.array([1.0, 0.0])
    H = atoms.H
    type2_01 = float(atoms.weights @ (H @ lam <= 0.0))
    assert type2_01 >= floor - 1e-9
    assert type2_01 == pytest.approx(floor, abs=1e-9)


def test_ccp_per_row_bases_match_the_dictionary(monkeypatch):
    # per-row callables become FunctionClassifier bases of one dictionary,
    # so they give the same bits as the equivalent vectorized dictionary,
    # and both kinds go through BaseDictionary.evaluate_matrix
    evaluate_matrix = BaseDictionary.evaluate_matrix
    kinds = []

    def spy(self, X):
        kinds.append(type(self.bases[1]).__name__)
        return evaluate_matrix(self, X)

    monkeypatch.setattr(BaseDictionary, "evaluate_matrix", spy)
    per_row = [lambda row: -1.0, lambda row: 1.0 if row[0] <= 0.3 else -1.0]
    batch = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.3, 1)])
    outs = [run_ccp_feasibility(Scenario.prop31(0.25), bases, [1.0, 0.0], 0.25,
                                0.1, hinge(), 2000, 4, 5000, 3)
            for bases in (per_row, batch)]
    assert all(r["error"] is None for r in outs[0]["rows"])
    assert repr(outs[0]) == repr(outs[1])
    assert kinds == ["FunctionClassifier"] * 8 + ["DecisionStump"] * 8


def test_results_do_not_depend_on_np_threads(monkeypatch):
    # every trial draws from its own (seed, component, trial) stream and
    # solves alone, so the worker count must not change a single bit
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1),
                        DecisionStump(0, 0.0, 1)], dim=1)
    cfg = NPConfig(alpha=0.8, delta=0.1, surrogate=logit())
    bases = [lambda row: -1.0, lambda row: 2.0 * float(np.ravel(row)[0]) - 1.0]
    slsqp = core._slsqp
    smooth_runs = []

    def counted_slsqp(*args, **kwargs):
        smooth_runs.append(1)
        return slsqp(*args, **kwargs)

    monkeypatch.setattr(core, "_slsqp", counted_slsqp)
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("NP_THREADS", threads)
        coverage = run_type1_coverage(Scenario.gaussian_1d(0.0, 1.0, 1.0), d, cfg,
                                      2000, 2000, trials=4, mc_draws=10 ** 4, seed=5)
        ccp = run_ccp_feasibility(Scenario.prop31(0.25), bases, [1.0, 0.0], 0.25,
                                  0.1, hinge(), 3000, 4, 3000, 5)
        outs.append(repr((coverage, ccp)))
    assert smooth_runs  # logit coverage takes the smooth route
    assert coverage["completed"] == 4 and len(ccp["rows"]) == 4
    assert outs[0] == outs[1]
