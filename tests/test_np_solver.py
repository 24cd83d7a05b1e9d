"""The constrained aggregation solver and its companions.

The solver is checked two ways: closed forms on hand-built instances
where the optimum is derivable by hand, and an exhaustive grid oracle
on random instances.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from npconvex import _solver_core as core
from npconvex import np_solver
from npconvex.ccp import ccp_bound
from npconvex.errors import (BaseRangeError, DomainError, EmptySample,
                             Infeasible, OneClassEmpty, SampleTooSmall,
                             UnknownLabel)
from npconvex.hypothesis import (BaseDictionary, ConstantClassifier,
                                 DecisionStump, FunctionClassifier,
                                 build_stump_dictionary)
from npconvex.np_solver import (NPConfig, alpha_kappa, eps_bar_upper,
                                feasibility_probe, grid_oracle_np, kappa,
                                n0_and_bound, pooled_bound, solve_np,
                                split_pooled)
from npconvex.risk import Sample, phi_risk_from_matrix
from npconvex.surrogate import exponential, hinge, logit


def test_kappa_frozen_values():
    assert kappa(1.0, 2, 0.1) == pytest.approx(10.864812125924956, abs=1e-12)
    assert kappa(1.0, 10, 0.1) == pytest.approx(13.020989045749834, abs=1e-12)
    assert kappa(1.0, 2, 0.2) == pytest.approx(9.790987322723266, abs=1e-12)
    # scales linearly in L
    assert kappa(2.5, 2, 0.1) == pytest.approx(2.5 * kappa(1.0, 2, 0.1))
    with pytest.raises(DomainError):
        kappa(0.0, 2, 0.1)
    with pytest.raises(DomainError):
        kappa(1.0, 0, 0.1)
    with pytest.raises(DomainError):
        kappa(1.0, 2, 1.0)


@pytest.mark.parametrize("M", [math.nan, math.inf, 2.5, 2.0, True, "2"])
def test_kappa_needs_an_integer_count_of_bases(M):
    # kappa(1.0, nan, 0.1) used to return NaN: nan < 1 is False
    with pytest.raises(DomainError, match="M must be an integer >= 1"):
        kappa(1.0, M, 0.1)
    assert kappa(1.0, np.int64(2), 0.1) == kappa(1.0, 2, 0.1)


def test_kappa_monotone_in_m_and_delta():
    base = kappa(1.0, 2, 0.1)
    assert kappa(1.0, 3, 0.1) > base
    assert kappa(1.0, 2, 0.05) > base
    assert kappa(1.0, 2, 0.5) < base


def test_alpha_kappa_values_and_guard():
    k10 = kappa(1.0, 10, 0.1)
    assert alpha_kappa(0.1, k10, 10 ** 6) == pytest.approx(
        0.08697901095425017, abs=1e-15)
    assert alpha_kappa(0.1, k10, 50000) == pytest.approx(
        0.041768366718846504, abs=1e-15)
    with pytest.raises(SampleTooSmall):
        alpha_kappa(0.1, k10, 5000)
    with pytest.raises(DomainError):
        alpha_kappa(0.1, k10, 0)


def _point_sample(x_minus, x_plus, n=2000):
    neg = np.full((n, 1), x_minus)
    pos = np.full((n, 1), x_plus)
    return Sample(neg, pos)


def test_solver_single_base():
    # one stump, negatives on its -1 side, positives on its +1 side
    d = BaseDictionary([DecisionStump(0, 0.5, 1)])
    sample = _point_sample(0.8, 0.3)
    cfg = NPConfig(alpha=0.5, delta=0.1, surrogate=hinge())
    sol = solve_np(sample, d, cfg)
    assert list(sol.weights.lam) == [1.0]
    assert sol.r_minus_phi == pytest.approx(0.0, abs=1e-12)
    assert sol.r_plus_phi == pytest.approx(0.0, abs=1e-12)
    assert sol.status == "optimal"


def test_solver_two_base_closed_form():
    # both classes sit at x = 0.2 where the stump reads +1, so with
    # h1 = -1 the hinge risks are affine in lam1 with unit slopes:
    #   R-hat_minus(lam) = 2(1 - lam1),  R-hat_plus(lam) = 2 lam1.
    # The optimum puts the constraint exactly at the strengthened level.
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)])
    sample = _point_sample(0.2, 0.2)
    cfg = NPConfig(alpha=0.6, delta=0.1, surrogate=hinge())
    sol = solve_np(sample, d, cfg)
    level = alpha_kappa(0.6, kappa(1.0, 2, 0.1), 2000)
    lam1_star = (2.0 - level) / 2.0
    assert sol.alpha_kappa == pytest.approx(level, abs=1e-15)
    assert sol.weights.lam[0] == pytest.approx(lam1_star, abs=1e-9)
    assert sol.r_minus_phi == pytest.approx(level, abs=1e-8)
    assert sol.r_plus_phi == pytest.approx(2.0 * lam1_star, abs=1e-8)


def test_solver_sample_too_small():
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)])
    sample = _point_sample(0.2, 0.2, n=50)
    cfg = NPConfig(alpha=0.3, delta=0.1, surrogate=hinge())
    with pytest.raises(SampleTooSmall):
        solve_np(sample, d, cfg)


def test_solver_infeasible():
    # every base reads +1 on every negative: min constraint value is phi(1)
    d = BaseDictionary([DecisionStump(0, 0.9, 1)])
    sample = _point_sample(0.2, 0.2, n=5000)
    cfg = NPConfig(alpha=0.9, delta=0.1, surrogate=hinge())
    with pytest.raises(Infeasible):
        solve_np(sample, d, cfg)


def test_n0_and_bound_reference_point():
    # kappa given to three figures, eps_bar = 0, alpha = 1/2:
    # n0 = ceil((8 * 9.79)^2) = ceil(6133.3...) rounds up to 6134
    rep = n0_and_bound(9.79, 0.0, 0.5, 10 ** 4, 10 ** 4, 2.0)
    assert rep.n0 == int(math.ceil((8.0 * 9.79) ** 2))
    # with the full-precision kappa the threshold lands at 6136
    kap = kappa(1.0, 2, 0.2)
    rep_full = n0_and_bound(kap, 0.0, 0.5, 10 ** 4, 10 ** 4, 2.0)
    assert rep_full.n0 == 6136
    # 4*phi(1)*kappa/(alpha*sqrt(n^-)) + 2*kappa/sqrt(n^+)
    assert rep_full.thm42_bound == pytest.approx(
        4.0 * 2.0 * kap / (0.5 * 100.0) + 2.0 * kap / 100.0, abs=1e-12)
    assert rep_full.thm42_bound == pytest.approx(1.7623777180901879, abs=1e-12)
    with pytest.raises(DomainError):
        n0_and_bound(kap, 1.0, 0.5, 100, 100, 2.0)


def test_pooled_bound_is_root2_inflation():
    kap = kappa(1.0, 2, 0.2)
    n, p = 2 * 10 ** 4, 0.5
    got = pooled_bound(kap, 0.0, 0.5, n, p, 2.0)
    classwise = n0_and_bound(kap, 0.0, 0.5, n // 2, n // 2, 2.0).thm42_bound
    assert got == pytest.approx(math.sqrt(2.0) * classwise, abs=1e-12)
    assert got == pytest.approx(2.492378470947291, abs=1e-12)


@pytest.mark.parametrize("kap, phi1", [(-1.0, 2.0), (0.0, 2.0), (1.0, -2.0), (1.0, 0.0)])
def test_the_three_excess_bounds_reject_the_same_kappa_and_phi(kap, phi1):
    # pooled_bound used to return a negative bound here (-3.6 at kappa = -1)
    with pytest.raises(DomainError, match=r"^kappa and phi\(1\) must be positive$"):
        pooled_bound(kap, 0.0, 0.5, 100, 0.5, phi1)
    with pytest.raises(DomainError, match=r"^kappa and phi\(1\) must be positive$"):
        n0_and_bound(kap, 0.0, 0.5, 100, 100, phi1)
    with pytest.raises(DomainError, match=r"^kappa and phi\(1\) must be positive$"):
        ccp_bound(kap, 0.5, 0.5, 100, phi1)


@pytest.mark.parametrize("kap, phi1", [(math.nan, 2.0), (math.inf, 2.0),
                                       (1.0, math.nan), (1.0, math.inf)])
def test_the_three_excess_bounds_reject_a_non_finite_kappa_or_phi(kap, phi1):
    # n0_and_bound raised ValueError (NaN) or OverflowError (inf) here,
    # and the other two returned NaN
    finite = r"^kappa and phi\(1\) must be finite, got "
    with pytest.raises(DomainError, match=finite):
        pooled_bound(kap, 0.0, 0.5, 100, 0.5, phi1)
    with pytest.raises(DomainError, match=finite):
        n0_and_bound(kap, 0.0, 0.5, 100, 100, phi1)
    with pytest.raises(DomainError, match=finite):
        ccp_bound(kap, 0.5, 0.5, 100, phi1)


def test_eps_bar_upper_and_probe():
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)])
    cfg = NPConfig(alpha=0.5, delta=0.2, surrogate=hinge())
    neg = np.full((10 ** 4, 1), 0.8)  # stump reads -1 there: min risk 0
    probe = feasibility_probe(neg, d, cfg, eps=0.9)
    assert probe["feasible"]
    assert probe["min_r_minus_phi"] == pytest.approx(0.0, abs=1e-9)
    eb = eps_bar_upper(probe["min_r_minus_phi"], kappa(1.0, 2, 0.2),
                       10 ** 4, 0.5)
    assert eb == pytest.approx(kappa(1.0, 2, 0.2) / 100.0 / 0.5, abs=1e-9)
    with pytest.raises(DomainError):
        feasibility_probe(neg, d, cfg, eps=0.0)
    with pytest.raises(DomainError):
        feasibility_probe(neg, d, cfg, eps=1.0)
    with pytest.raises(SampleTooSmall):
        feasibility_probe(neg[:50], d, cfg, eps=0.5)


def _random_instance(rng, m, n=400):
    thresholds = np.sort(rng.uniform(0.1, 0.9, max(m - 1, 1)))
    bases = [ConstantClassifier(-1.0)]
    for i, t in enumerate(thresholds[: m - 1]):
        bases.append(DecisionStump(0, float(t), 1 if i % 2 == 0 else -1))
    d = BaseDictionary(bases[:m], dim=1)
    neg = rng.uniform(0, 1, (n, 1))
    pos = rng.uniform(0.2, 1.0, (n, 1))
    return d, Sample(neg, pos)


def test_solver_matches_grid_oracle():
    rng = np.random.default_rng(21)
    hits = 0
    for trial in range(12):
        m = 2 + trial % 2
        d, sample = _random_instance(rng, m)
        cfg = NPConfig(alpha=0.85, delta=0.1, surrogate=hinge())
        try:
            sol = solve_np(sample, d, cfg)
        except (Infeasible, SampleTooSmall):
            continue
        ref = grid_oracle_np(sample, d, cfg, resolution=1e-3)
        assert sol.r_plus_phi <= ref.r_plus_phi + 1e-3
        assert sol.r_minus_phi <= sol.alpha_kappa + core.FEAS_TOL
        hits += 1
    assert hits >= 8


def test_grid_oracle_nested_resolution():
    # a finer grid can only improve the oracle objective
    rng = np.random.default_rng(5)
    d, sample = _random_instance(rng, 2, n=2000)
    cfg = NPConfig(alpha=0.9, delta=0.1, surrogate=logit())
    coarse = grid_oracle_np(sample, d, cfg, resolution=1e-2)
    fine = grid_oracle_np(sample, d, cfg, resolution=1e-3)
    assert fine.r_plus_phi <= coarse.r_plus_phi + 1e-12


def test_oracle_affine_and_generic_routes_agree():
    # hinge is affine on [-1, 1], so the oracle's candidate-subset route
    # must land on the same optimum as brute enumeration with a custom
    # surrogate tabulating the same loss
    from npconvex.surrogate import custom

    zs = np.linspace(-1, 1, 4001)
    tabulated = custom(zs, 1.0 + zs, lipschitz=1.0)
    rng = np.random.default_rng(17)
    for _ in range(5):
        d, sample = _random_instance(rng, 3)
        cfg_a = NPConfig(alpha=0.85, delta=0.1, surrogate=hinge())
        cfg_b = NPConfig(alpha=0.85, delta=0.1, surrogate=tabulated)
        try:
            a = grid_oracle_np(sample, d, cfg_a, resolution=1e-2)
        except Infeasible:
            continue
        b = grid_oracle_np(sample, d, cfg_b, resolution=1e-2)
        assert a.r_plus_phi == pytest.approx(b.r_plus_phi, abs=1e-6)


def test_smooth_surrogates_match_oracle():
    rng = np.random.default_rng(33)
    for s in (logit(), exponential()):
        d, sample = _random_instance(rng, 2, n=10 ** 4)
        cfg = NPConfig(alpha=0.9, delta=0.1, surrogate=s)
        sol = solve_np(sample, d, cfg)
        ref = grid_oracle_np(sample, d, cfg, resolution=1e-3)
        assert sol.r_plus_phi <= ref.r_plus_phi + 1e-3
        assert sol.r_minus_phi <= sol.alpha_kappa + core.FEAS_TOL


def test_solver_deterministic():
    rng = np.random.default_rng(2)
    d, sample = _random_instance(rng, 3, n=2000)
    cfg = NPConfig(alpha=0.9, delta=0.1, surrogate=logit())
    a = solve_np(sample, d, cfg)
    b = solve_np(sample, d, cfg)
    assert list(a.weights.lam) == list(b.weights.lam)
    assert a.r_plus_phi == b.r_plus_phi


def test_split_pooled():
    X = np.array([[0.1], [0.2], [0.3], [0.4]])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    s = split_pooled((X, y))
    assert s.n_minus == 2 and s.n_plus == 2
    assert list(s.positives[:, 0]) == [0.1, 0.3]
    s2 = split_pooled((np.array([0.5, 0.6]), [1, -1]))  # a 1-D X is one feature
    assert s2.n_plus == 1 and s2.positives.tolist() == [[0.5]]
    with pytest.raises(UnknownLabel):
        split_pooled((X, np.array([1.0, 0.0, 1.0, -1.0])))
    with pytest.raises(OneClassEmpty):
        split_pooled((X, np.ones(4)))
    with pytest.raises(EmptySample):
        split_pooled((np.empty((0, 1)), np.empty(0)))
    # (X, y) is the one input form: a list of (x, y) pairs is refused
    pairs = [(np.array([0.5]), 1), (np.array([0.6]), -1)]
    for pooled in (pairs, [], (X, y, y)):
        with pytest.raises(DomainError, match=r"the pair \(X, y\)"):
            split_pooled(pooled)


def test_split_pooled_needs_one_label_per_row():
    # these raised numpy's IndexError, or split a column of labels silently
    y_column = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    for X, y in ((np.zeros((4, 1)), np.array([1.0, -1.0, 1.0])),
                 (np.zeros((4, 2)), y_column), (np.zeros((4, 1)), y_column)):
        with pytest.raises(DomainError, match=rf"X has shape \({X.shape[0]}, "
                                              rf"{X.shape[1]}\), y has shape"):
            split_pooled((X, y))


def test_solution_json_round_trip():
    d = BaseDictionary([DecisionStump(0, 0.5, 1)])
    sample = _point_sample(0.8, 0.3, n=500)
    sol = solve_np(sample, d, NPConfig(alpha=0.7, delta=0.1, surrogate=hinge()))
    blob = sol.to_json()
    assert blob["n_minus"] == 500
    assert blob["status"] == "optimal"
    assert blob["weights"] == [1.0]


def test_stump_dictionary_end_to_end():
    rng = np.random.default_rng(44)
    neg = rng.normal(0.0, 1.0, (3000, 1))
    pos = rng.normal(2.0, 1.0, (3000, 1))
    d = build_stump_dictionary(np.vstack([neg, pos]), 3)
    cfg = NPConfig(alpha=0.6, delta=0.1, surrogate=hinge())
    sol = solve_np(Sample(neg, pos), d, cfg)
    assert sol.r_minus_phi <= sol.alpha_kappa + core.FEAS_TOL
    assert 0.0 <= sol.r_plus_phi <= 2.0


def test_hinge_route_reads_column_means_only(monkeypatch):
    # the affine route needs the M column means per class, never H itself
    rng = np.random.default_rng(8)
    X = np.vstack([rng.normal(0.0, 1.0, (3000, 3)), rng.normal(0.8, 1.0, (3000, 3))])
    stumps = build_stump_dictionary(X, 6)
    d = BaseDictionary([ConstantClassifier(-1.0), *stumps.bases], dim=3)
    sample = Sample(X[:3000], X[3000:])
    cfg = NPConfig(alpha=0.6, delta=0.1, surrogate=hinge())
    H_minus, H_plus = d.evaluate_matrix(sample.negatives), d.evaluate_matrix(sample.positives)

    calls = []
    evaluate = BaseDictionary.evaluate_matrix

    def spy(self, X):
        calls.append(np.shape(X))
        return evaluate(self, X)

    monkeypatch.setattr(BaseDictionary, "evaluate_matrix", spy)
    sol = solve_np(sample, d, cfg)
    assert calls == []
    lam = sol.weights.lam
    assert np.count_nonzero(lam) == 2  # a tight mixture, not a vertex
    assert sol.r_minus_phi == pytest.approx(
        phi_risk_from_matrix(H_minus, lam, cfg.surrogate, +1.0), abs=1e-12)
    assert sol.r_plus_phi == pytest.approx(
        phi_risk_from_matrix(H_plus, lam, cfg.surrogate, -1.0), abs=1e-12)


def test_wide_hinge_solve_builds_no_identity_matrix():
    """The affine route keeps O(M) vectors per vertex, not an M x M identity.

    At M = 1001 (d = 10, 50 stumps per axis, 2e3 rows) the traced peak of
    this solve was 10.7 MB when each vertex was a row of np.eye(M), whose
    8 M^2 bytes (8.0 MB) alone are twice the bound below; one-hot vertices
    peak at 2.7 MB.
    """
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(0.0, 1.0, (1000, 10)), rng.normal(0.7, 1.0, (1000, 10))])
    d = BaseDictionary([ConstantClassifier(-1.0), *build_stump_dictionary(X, 50).bases], dim=10)
    cfg = NPConfig(alpha=0.7, delta=0.1, surrogate=hinge())
    tracemalloc.start()
    try:
        sol = solve_np(Sample(X[:1000], X[1000:]), d, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.m == 1001 and sol.status == "optimal"
    assert peak < 8 * d.m ** 2 / 2


def test_smooth_route_risks_are_the_solved_values():
    rng = np.random.default_rng(12)
    d, sample = _random_instance(rng, 3, n=2000)
    cfg = NPConfig(alpha=0.9, delta=0.1, surrogate=logit())
    sol = solve_np(sample, d, cfg)
    lam = sol.weights.lam
    H_minus, H_plus = d.evaluate_matrix(sample.negatives), d.evaluate_matrix(sample.positives)
    assert sol.r_minus_phi == pytest.approx(
        phi_risk_from_matrix(H_minus, lam, cfg.surrogate, +1.0), abs=1e-12)
    assert sol.r_plus_phi == pytest.approx(
        phi_risk_from_matrix(H_plus, lam, cfg.surrogate, -1.0), abs=1e-12)


def test_smooth_solves_never_build_the_base_matrix(monkeypatch):
    # the smooth route reads stumps through BaseDictionary.operator; the
    # grid oracle, the solver's referee, still builds H
    rng = np.random.default_rng(6)
    X = np.vstack([rng.normal(0.0, 1.0, (1500, 2)), rng.normal(0.8, 1.0, (1500, 2))])
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.3, 1),
                        DecisionStump(1, -0.2, -1)], dim=2)
    sample = Sample(X[:1500], X[1500:])
    cfg = NPConfig(alpha=0.8, delta=0.1, surrogate=logit())
    calls = []
    evaluate = BaseDictionary.evaluate_matrix

    def spy(self, X):
        calls.append(np.shape(X))
        return evaluate(self, X)

    monkeypatch.setattr(BaseDictionary, "evaluate_matrix", spy)
    sol = solve_np(sample, d, cfg)
    probe = feasibility_probe(sample.negatives, d, cfg, 0.9)
    assert calls == []
    assert sol.status == "optimal" and probe["argmin"].m == d.m
    oracle = grid_oracle_np(sample, d, cfg, resolution=0.01)
    assert calls == [(1500, 2), (1500, 2)]
    assert oracle.r_plus_phi >= sol.r_plus_phi - core.GAP_TOL


def test_smooth_forms_merge_rows_into_stump_cells_only_where_they_are_fewer(monkeypatch):
    seen = []  # the weights argument of each core.risk_form call
    risk_form = core.risk_form

    def spy(H, s, sign, weights=None):
        seen.append(weights)
        return risk_form(H, s, sign, weights=weights)

    def weights_of(neg, pos, d):
        seen.clear()
        solve_np(Sample(neg, pos), d, NPConfig(alpha=0.8, delta=0.1, surrogate=logit()))
        return seen

    monkeypatch.setattr(core, "risk_form", spy)
    rng = np.random.default_rng(4)
    # 1-D, 3 thresholds: 4 cells for 2000 rows a class
    neg, pos = rng.normal(0.0, 1.0, (2000, 1)), rng.normal(0.8, 1.0, (2000, 1))
    d = BaseDictionary([ConstantClassifier(-1.0), *build_stump_dictionary(
        np.vstack([neg, pos]), 3).bases], dim=1)
    weights = weights_of(neg, pos, d)
    assert len(weights) == 2
    for w, X in zip(weights, (neg, pos)):
        assert w.size == 4 and w.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.sort(w).tolist() == np.sort(np.unique(
            d.evaluate_matrix(X), axis=0, return_counts=True)[1] / 2000).tolist()
    # the np-smooth benchmark shape: 11**5 cells > 20000 rows a class
    neg, pos = rng.normal(0.0, 1.0, (20_000, 5)), rng.normal(0.7, 1.0, (20_000, 5))
    d = BaseDictionary([ConstantClassifier(-1.0), *build_stump_dictionary(
        np.vstack([neg, pos]), 10).bases], dim=5)
    assert weights_of(neg, pos, d) == [None, None]
    # a user function keeps every row
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.0, 1),
                        FunctionClassifier(lambda row: float(np.tanh(row[0])))], dim=5)
    assert weights_of(neg, pos, d) == [None, None]


def test_exponential_solve_survives_simplex_drift():
    # SLSQP iterates leave the simplex by ~1e-12 here; evaluating phi at
    # the raw iterate used to raise DomainError for a margin just above 1
    rng = np.random.default_rng(1)
    neg = rng.normal(0.0, 1.0, (10_000, 5))
    pos = rng.normal(0.7, 1.0, (10_000, 5))
    stumps = build_stump_dictionary(np.vstack([neg, pos]), 5)
    d = BaseDictionary([ConstantClassifier(-1.0), *stumps.bases], dim=5)
    cfg = NPConfig(alpha=0.8, delta=0.1, surrogate=exponential())
    sol = solve_np(Sample(neg, pos), d, cfg)
    assert sol.status == "optimal"
    assert sol.r_minus_phi <= sol.alpha_kappa + core.FEAS_TOL


def test_grid_oracle_is_independent_of_the_solver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not share the solver's code path")

    monkeypatch.setattr(BaseDictionary, "column_means", forbidden)
    monkeypatch.setattr(BaseDictionary, "operator", forbidden)
    monkeypatch.setattr(core, "_affine_solve", forbidden)
    monkeypatch.setattr(core, "risk_form", forbidden)
    scans = []

    def spy(name, real):
        return lambda *args: scans.append(name) or real(*args)
    for name in ("affine_window", "iter_grid_chunks"):
        monkeypatch.setattr(np_solver, name, spy(name, getattr(np_solver, name)))
    rng = np.random.default_rng(21)
    for m in (2, 3):
        d, sample = _random_instance(rng, m)
        for resolution in (1e-2, 1e-3):
            sol = grid_oracle_np(sample, d, NPConfig(alpha=0.85, delta=0.1, surrogate=hinge()),
                                 resolution=resolution)
            assert sol.status == "optimal"
    # hinge at M = 2 and M = 3 scans the affine window at every resolution
    assert scans == ["affine_window"] * 4


def test_grid_oracle_reports_exactly_the_risks_at_its_weights():
    # the scan's value of a point followed the other points of its BLAS
    # run, so r_plus_phi differed from the risk at lambda in the last
    # bits (seed 0: 1.853846153846154 against 1.8538461538461541)
    for seed in (0, 1, 2, 3):
        rng = np.random.default_rng([seed, 3])
        bases = [DecisionStump(0, 0.995, -1), DecisionStump(0, float(rng.uniform(0.2, 0.9)), 1),
                 DecisionStump(0, float(rng.uniform(0.2, 0.9)), -1)]
        d = BaseDictionary(bases, dim=1)
        sample = Sample(rng.uniform(0, 1, (200, 1)), rng.uniform(0.1, 1.0, (200, 1)))
        cfg = NPConfig(alpha=float(rng.uniform(0.9, 0.95)), delta=0.1, surrogate=hinge())
        ref = grid_oracle_np(sample, d, cfg, resolution=1.0 / int(rng.integers(2, 401)))
        lam = ref.weights.lam
        assert ref.r_plus_phi == phi_risk_from_matrix(
            d.evaluate_matrix(sample.positives), lam, hinge(), -1.0)
        assert ref.r_minus_phi == phi_risk_from_matrix(
            d.evaluate_matrix(sample.negatives), lam, hinge(), +1.0)


def test_base_values_within_the_range_tolerance_solve_for_every_surrogate():
    # the dictionary accepted 1 + 5e-10, and the logit and exponential
    # routes then raised DomainError on the surrogate argument -1 - 5e-10
    rng = np.random.default_rng(0)
    sample = Sample(rng.uniform(0, 0.5, (4000, 1)), rng.uniform(0.5, 1, (4000, 1)))
    d = BaseDictionary([ConstantClassifier(-1.0), FunctionClassifier(
        lambda row: 1.0 + 5e-10 if row[0] > 0.5 else -1.0, "dusty")], dim=1)
    H = d.evaluate_matrix(sample.positives)
    assert H.max() == 1.0 and set(np.unique(H)) == {-1.0, 1.0}
    for s in (hinge(), logit(), exponential()):
        sol = solve_np(sample, d, NPConfig(alpha=0.9, delta=0.1, surrogate=s))
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.weights.lam, [0.0, 1.0], atol=1e-12)


def test_nan_base_values_are_rejected():
    # NaN used to pass the [-1, 1] range check, and the hinge route then
    # reported status "optimal" with r_minus_phi = nan
    rng = np.random.default_rng(4)
    sample = Sample(rng.uniform(0, 1, (200, 1)), rng.uniform(0, 1, (200, 1)))
    d = BaseDictionary([ConstantClassifier(-1.0),
                        FunctionClassifier(lambda row: np.nan, "nan")], dim=1)
    for s in (hinge(), logit()):
        with pytest.raises(BaseRangeError):
            solve_np(sample, d, NPConfig(alpha=0.9, delta=0.1, surrogate=s))
