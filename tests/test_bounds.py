"""Exact binomial tails, the two tail lemmas, the Rademacher identity,
sup-deviation sampling, and the gamma-curve machinery.

Tail values are cross-checked against an independent arbitrary-precision
recomputation (mpmath) so the fast float path never certifies itself.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from npconvex.bounds import (HOLD_TOL, MAX_EXACT_N, binomial_tail_exact,
                             check_lemma_bin, check_lemma_bin2, check_prop42,
                             check_rademacher_vertex_identity,
                             check_sup_deviation, gamma_curve,
                             sweep_binomial_lemmas)
from npconvex._grids import grid_points
from npconvex.errors import DomainError, EmptySample, HypothesisFailed
from npconvex.harness import Scenario
from npconvex.hypothesis import (BaseDictionary, ConstantClassifier,
                                 DecisionStump)
from npconvex.risk import Sample, WeightedAtoms, empirical_atoms
from npconvex.surrogate import hinge, logit

FROZEN_TAILS = [
    # (n, q, t, value) frozen from a 60-digit mpmath evaluation
    (1, 0.3, 1.0, 0.3),
    (2, 0.5, 1.0, 0.75),
    (100, 0.5, 25.0, 0.999999909499869),
    (500, 0.2, 100.0, 0.517836321565467),
    (20000, 0.5, 10000.0, 0.50282091265611),
    (20000, 0.5, 10100.0, 0.0796917179923669),
]


def _mpmath_tail(n, q, t):
    import mpmath

    with mpmath.workdps(60):
        qm = mpmath.mpf(q)
        k0 = int(math.ceil(t - 1e-9))
        total = mpmath.mpf(0)
        for k in range(max(k0, 0), n + 1):
            total += mpmath.binomial(n, k) * qm ** k * (1 - qm) ** (n - k)
        return float(total)


def test_frozen_tail_values():
    for n, q, t, want in FROZEN_TAILS:
        got = binomial_tail_exact(n, q, t)
        assert got == pytest.approx(want, rel=1e-13), (n, q, t)


def test_tail_against_independent_recomputation():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(1, 3000))
        q = float(rng.uniform(0.02, 0.98))
        t = float(rng.uniform(0.0, n + 1))
        got = binomial_tail_exact(n, q, t)
        want = _mpmath_tail(n, q, t)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_tail_edge_cases():
    assert binomial_tail_exact(10, 0.3, 0.0) == 1.0
    assert binomial_tail_exact(10, 0.3, -5.0) == 1.0
    assert binomial_tail_exact(10, 0.3, 11.0) == 0.0
    # t exactly n keeps the last term: P(N >= n) = q^n
    assert binomial_tail_exact(10, 0.5, 10.0) == pytest.approx(0.5 ** 10, rel=1e-13)
    # ceiling snap: t just below an integer counts that integer
    a = binomial_tail_exact(50, 0.4, 20.0)
    b = binomial_tail_exact(50, 0.4, 20.0 - 1e-12)
    assert a == b
    # monotone decreasing in t
    vals = [binomial_tail_exact(200, 0.3, t) for t in range(0, 201, 10)]
    assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))


def test_tail_validation():
    with pytest.raises(DomainError):
        binomial_tail_exact(0, 0.3, 1.0)
    with pytest.raises(DomainError):
        binomial_tail_exact(MAX_EXACT_N + 1, 0.3, 1.0)
    with pytest.raises(DomainError):
        binomial_tail_exact(10, 0.0, 1.0)
    with pytest.raises(DomainError):
        binomial_tail_exact(10, 1.0, 1.0)
    with pytest.raises(DomainError):
        binomial_tail_exact(10, 0.3, math.nan)


def test_lemma_bin_examples():
    # n=100, q=0.5, t=25 = nq/2: tail is essentially 1, bound is
    # 1 - exp(-12.5)
    res = check_lemma_bin(100, 0.5, 25.0)
    assert res.holds
    assert res.bound_value == pytest.approx(1.0 - math.exp(-12.5), rel=1e-15)
    assert res.exact_value == pytest.approx(0.999999909499869, rel=1e-13)
    # the slack gets recorded
    assert res.worst_slack == pytest.approx(res.exact_value - res.bound_value)


def test_lemma_bin_precondition_edges():
    check_lemma_bin(100, 0.5, 25.0)  # t = nq/2 exactly is allowed
    with pytest.raises(DomainError):
        check_lemma_bin(100, 0.5, 25.0 + 1e-6)  # just above
    with pytest.raises(DomainError):
        check_lemma_bin(100, 0.5, 0.0)  # t must be positive
    with pytest.raises(DomainError):
        check_lemma_bin(100, 1.5, 10.0)


def test_lemma_bin2_examples():
    res = check_lemma_bin2(1, 0.3)
    assert res.exact_value == pytest.approx(0.3, rel=1e-15)
    assert res.bound_value == 0.25
    assert res.holds
    res = check_lemma_bin2(500, 0.2)
    assert res.exact_value == pytest.approx(0.517836321565467, rel=1e-13)
    assert res.bound_value == 0.2
    with pytest.raises(DomainError):
        check_lemma_bin2(10, 0.6)
    with pytest.raises(DomainError):
        check_lemma_bin2(10, 0.0)


def test_mini_sweep_holds():
    out = sweep_binomial_lemmas(n_max=40, q_points=10, t_points=3)
    assert out["all_hold"]
    assert out["violations"] == []
    assert out["checks"] == 40 * 10 * 4
    assert out["worst_bin"]["worst_slack"] > -HOLD_TOL
    assert out["worst_bin2"]["worst_slack"] > -HOLD_TOL


def test_rademacher_vertex_identity():
    rng = np.random.default_rng(2)
    d = BaseDictionary([DecisionStump(0, 0.4, 1), DecisionStump(0, 0.7, -1),
                        ConstantClassifier(-1.0)], dim=1)
    data = rng.uniform(0, 1, (300, 1))
    assert check_rademacher_vertex_identity(d, data, seed=11, trials=50)
    # a coarser grid must still satisfy the slack-adjusted identity
    assert check_rademacher_vertex_identity(d, data, seed=12, trials=20,
                                            resolution=0.1)


def test_rademacher_vertex_identity_refuses_vacuous_input():
    # an empty sample or no trial would pass without comparing anything
    d = BaseDictionary([DecisionStump(0, 0.4, 1), ConstantClassifier(-1.0)], dim=1)
    with pytest.raises(EmptySample):
        check_rademacher_vertex_identity(d, np.empty((0, 1)), seed=1, trials=5)
    data = np.random.default_rng(2).uniform(0, 1, (30, 1))
    for trials in (0, -1):
        with pytest.raises(DomainError, match="trial"):
            check_rademacher_vertex_identity(d, data, seed=1, trials=trials)


def test_sup_deviation_small_run():
    scen = Scenario.prop31(0.3)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.3, 1)],
                       dim=1)
    out = check_sup_deviation(scen, d, hinge(), n=500, delta=0.1, trials=50,
                              seed=3)
    assert out["trials"] == 50
    assert out["violation_rate"] <= 0.1
    assert out["max_sup"] <= out["threshold"]


def test_sup_deviation_rejects_empty_samples():
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.3, 1)], dim=1)
    for n in (0, -1):
        with pytest.raises(DomainError, match="n >= 1"):
            check_sup_deviation(Scenario.prop31(0.3), d, hinge(), n=n, delta=0.1,
                                trials=5, seed=3)


def test_sup_deviation_monte_carlo_reference_on_custom_csv():
    # custom_csv has no closed-form atoms, so the population term comes
    # from the merged atoms of a 10^6-draw reference sample; the law is the
    # pool itself, so the pool's exact atoms give the same supremum up to
    # Monte Carlo error on the same trial draws
    rng = np.random.default_rng(5)
    neg = rng.uniform(0, 1, (40, 1))
    scen = Scenario.custom_csv(neg, rng.uniform(0, 1, (40, 1)))
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.3, 1),
                        DecisionStump(0, 0.7, -1)], dim=1)
    pool = SimpleNamespace(
        draw_negatives=scen.draw_negatives,
        population_atoms=lambda dictionary, side: empirical_atoms(
            dictionary.evaluate_matrix(neg)))
    runs = [check_sup_deviation(law, d, logit(), n=500, delta=0.1, trials=20,
                                seed=3, resolution=1e-2) for law in (scen, pool)]
    mc, exact = runs
    assert mc["violation_rate"] == exact["violation_rate"] <= 0.1
    assert mc["max_sup"] <= mc["threshold"]
    assert abs(mc["max_sup"] - exact["max_sup"]) <= 5e-3


def test_grid_referees_reject_resolutions_outside_the_unit_half():
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)], dim=1)
    atoms = _uniform_pair_atoms(0.5)
    data = np.random.default_rng(1).uniform(0, 1, (50, 1))
    for resolution in (0.0, -0.01, 0.6):
        with pytest.raises(DomainError, match="resolution"):
            gamma_curve(atoms, d, hinge(), [0.5], resolution=resolution)
        with pytest.raises(DomainError, match="resolution"):
            check_rademacher_vertex_identity(d, data, seed=1, trials=1,
                                             resolution=resolution)
        with pytest.raises(DomainError, match="resolution"):
            check_sup_deviation(Scenario.prop31(0.5), d, hinge(), n=50, delta=0.1,
                                trials=1, seed=1, resolution=resolution)


def test_gamma_curve_at_four_bases_is_the_grid_minimum():
    rng = np.random.default_rng(12)
    d = BaseDictionary([ConstantClassifier(-1.0)] * 4, dim=1)
    H = rng.uniform(-1.0, 1.0, (5, 4))
    minus = WeightedAtoms(H, rng.dirichlet(np.ones(5)))
    plus = WeightedAtoms(H, rng.dirichlet(np.ones(5)))
    s = logit()
    levels = [0.3, 0.6, 0.8, 1.0, 2.0]
    curve = gamma_curve((minus, plus), d, s, levels, resolution=0.05)
    grid = grid_points(4, 20)
    r_minus = minus.weights @ s.eval(H @ grid.T)
    r_plus = plus.weights @ s.eval(-(H @ grid.T))
    want = [float(np.min(r_plus[r_minus <= x], initial=np.inf)) for x in levels]
    assert [x for x, _ in curve] == levels
    np.testing.assert_allclose([v for _, v in curve], want, rtol=0.0, atol=1e-12)
    assert math.isinf(curve[0][1]) and math.isfinite(curve[-1][1])
    assert gamma_curve((minus, plus), d, s, [], resolution=0.05) == []


def test_gamma_curve_refuses_oversized_scans_and_empty_classes():
    # 1.7e8 grid points at M = 4 and 1e-3 times 12 atoms exceeds the guard
    d = BaseDictionary([ConstantClassifier(-1.0)] * 4, dim=1)
    atoms = WeightedAtoms(np.ones((12, 4)), np.full(12, 1.0 / 12))
    with pytest.raises(DomainError, match="coarser resolution"):
        gamma_curve((atoms, atoms), d, hinge(), [0.5], resolution=1e-3)
    d5 = BaseDictionary([ConstantClassifier(-1.0)] * 5, dim=1)
    with pytest.raises(DomainError, match="M <= 4"):
        gamma_curve((atoms, atoms), d5, hinge(), [0.5], resolution=0.1)
    # an empty class has no atoms: the pair cannot be built
    with pytest.raises(EmptySample):
        gamma_curve((empirical_atoms(d.evaluate_matrix(np.empty((0, 1)))), atoms),
                    d, hinge(), [0.5], resolution=0.1)


def test_gamma_curve_takes_only_a_pair_of_atoms():
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)], dim=1)
    rng = np.random.default_rng(3)
    sample = Sample(rng.uniform(0, 1, (40, 1)), rng.uniform(0.3, 1.3, (40, 1)))
    scen = Scenario.prop31(0.3)
    minus = empirical_atoms(d.evaluate_matrix(sample.negatives))
    for source in (sample, scen, [minus, minus], (minus,)):
        with pytest.raises(DomainError, match=r"a \(minus, plus\) pair of WeightedAtoms"):
            gamma_curve(source, d, hinge(), [0.5], resolution=0.1)
    # the replacement calls: the empirical atoms of a sample, the
    # population atoms of a scenario
    pair = (minus, empirical_atoms(d.evaluate_matrix(sample.positives)))
    exact = (scen.population_atoms(d, "minus"), scen.population_atoms(d, "plus"))
    for atoms in (pair, exact):
        [(x, val)] = gamma_curve(atoms, d, hinge(), [0.5], resolution=0.1)
        assert x == 0.5 and math.isfinite(val)


def _uniform_pair_atoms(alpha):
    # atoms for {h1 = -1, h2 = stump(alpha, +1)} under uniform classes:
    # the interval [0, alpha] has h2 = +1, (alpha, 1] has h2 = -1
    H = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    return (WeightedAtoms(H, np.array([alpha, 1.0 - alpha])),
            WeightedAtoms(H, np.array([alpha, 1.0 - alpha])))


def test_gamma_curve_monotone_and_convex():
    atoms = _uniform_pair_atoms(0.5)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)],
                       dim=1)
    xs = [0.2 + 0.05 * i for i in range(17)]
    curve = gamma_curve(atoms, d, hinge(), xs, resolution=1e-3)
    vals = [v for _, v in curve]
    finite = [v for v in vals if math.isfinite(v)]
    assert len(finite) >= 10
    # non-increasing in the constraint level
    pairs = [(v, w) for v, w in zip(vals, vals[1:])
             if math.isfinite(v) and math.isfinite(w)]
    assert all(v >= w - 1e-9 for v, w in pairs)
    # midpoint convexity on the finite stretch
    for i in range(1, len(vals) - 1):
        trio = vals[i - 1], vals[i], vals[i + 1]
        if all(math.isfinite(v) for v in trio):
            assert trio[1] <= (trio[0] + trio[2]) / 2.0 + 5e-3
    # the uniform construction has gamma(1/2) = 3/2
    mid = dict((round(x, 9), v) for x, v in curve)
    assert mid[0.5] == pytest.approx(1.5, abs=2e-3)


def test_prop42_inequality_holds():
    atoms = _uniform_pair_atoms(0.5)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)],
                       dim=1)
    alpha, nu0 = 0.5, 0.3
    nus = [0.05, 0.1, 0.15, 0.2, 0.25]
    xs = sorted({alpha} | {alpha - nu for nu in nus} | {alpha - nu0})
    curve = gamma_curve(atoms, d, hinge(), xs, resolution=1e-3)
    out = check_prop42(curve, alpha, nu0, nus, phi_at_one=2.0, slack=4e-3)
    assert out.holds
    assert out.parameters["nu_count"] == len(nus)


def test_prop42_requires_curve_points():
    atoms = _uniform_pair_atoms(0.5)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)],
                       dim=1)
    curve = gamma_curve(atoms, d, hinge(), [0.5, 0.4], resolution=1e-2)
    with pytest.raises(DomainError):
        check_prop42(curve, 0.5, 0.3, [0.2], phi_at_one=2.0)


def test_prop42_flags_empty_level():
    # gamma(alpha - nu0) must be finite; an unreachable level trips the
    # hypothesis check
    atoms = _uniform_pair_atoms(0.5)
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)],
                       dim=1)
    xs = [0.5, 0.45, -0.1]
    curve = gamma_curve(atoms, d, hinge(), xs, resolution=1e-2)
    with pytest.raises(HypothesisFailed):
        check_prop42(curve, 0.5, 0.6, [0.05], phi_at_one=2.0)
