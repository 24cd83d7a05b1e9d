"""Empirical and exact risk computations."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from npconvex import risk
from npconvex.errors import DomainError, EmptySample, UnknownScenario
from npconvex.harness import Scenario
from npconvex.hypothesis import (BaseDictionary, CombinedClassifier,
                                 ConstantClassifier, DecisionStump,
                                 SimplexWeights)
from npconvex.risk import (Sample, WeightedAtoms, empirical_01_type1,
                           empirical_01_type2, empirical_atoms,
                           empirical_phi_type1, empirical_phi_type2,
                           exact_risks_prop31, monte_carlo_risk,
                           phi_risk_from_matrix, risk_report)
from npconvex.surrogate import exponential, hinge, logit


def _prop31_classifier(lam: float, alpha: float) -> CombinedClassifier:
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, alpha, 1)])
    return CombinedClassifier(d, SimplexWeights([lam, 1.0 - lam]))


def test_empirical_risks_by_hand():
    d = BaseDictionary([DecisionStump(0, 0.5, 1)])
    h = CombinedClassifier(d, SimplexWeights([1.0]))
    neg = np.array([[0.1], [0.4], [0.9]])
    pos = np.array([[0.2], [0.8]])
    # h = +1 on x <= 0.5: two of three negatives are misclassified
    assert empirical_01_type1(h, neg) == pytest.approx(2.0 / 3.0)
    assert empirical_01_type2(h, pos) == pytest.approx(0.5)
    s = hinge()
    # phi(margin) = 1 + margin for hinge: (2 + 2 + 0)/3 and (0 + 2)/2
    assert empirical_phi_type1(h, s, neg) == pytest.approx(4.0 / 3.0)
    assert empirical_phi_type2(h, s, pos) == pytest.approx(1.0)
    rep = risk_report(h, s, Sample(neg, pos))
    assert rep.r_minus_phi == pytest.approx(4.0 / 3.0)
    assert rep.to_json()["r_plus_01"] == pytest.approx(0.5)


def test_phi_risk_dominates_01_risk():
    rng = np.random.default_rng(12)
    d = BaseDictionary([DecisionStump(0, 0.4, 1), DecisionStump(0, 0.7, -1),
                        ConstantClassifier(-0.5)])
    neg = rng.uniform(0, 1, (200, 1))
    pos = rng.uniform(0, 1, (200, 1))
    for s in (hinge(), logit(), exponential()):
        for _ in range(10):
            raw = rng.random(3)
            h = CombinedClassifier(d, SimplexWeights(raw / raw.sum()))
            assert empirical_phi_type1(h, s, neg) >= empirical_01_type1(h, neg) - 1e-12
            assert empirical_phi_type2(h, s, pos) >= empirical_01_type2(h, pos) - 1e-12


def test_phi_risk_midpoint_convex_in_weights():
    rng = np.random.default_rng(4)
    H = rng.choice([-1.0, 1.0], size=(150, 3))
    s = logit()
    for _ in range(25):
        a, b = rng.random(3), rng.random(3)
        a, b = a / a.sum(), b / b.sum()
        mid = (a + b) / 2.0
        lhs = phi_risk_from_matrix(H, mid, s, 1.0)
        rhs = (phi_risk_from_matrix(H, a, s, 1.0)
               + phi_risk_from_matrix(H, b, s, 1.0)) / 2.0
        assert lhs <= rhs + 1e-10


def test_exact_risks_prop31_values():
    assert exact_risks_prop31(0.3, 0.2) == (0.2, 0.8)
    assert exact_risks_prop31(0.7, 0.2) == (0.0, 1.0)
    assert exact_risks_prop31(0.5, 0.2) == (0.2, 1.0)
    assert exact_risks_prop31(0.0, 0.4) == (0.4, 0.6)
    with pytest.raises(DomainError):
        exact_risks_prop31(1.2, 0.2)
    with pytest.raises(DomainError):
        exact_risks_prop31(0.5, 0.0)


def test_exact_risks_prop31_match_large_sample():
    alpha = 0.2
    rng = np.random.default_rng(77)
    X = rng.uniform(0, 1, (200000, 1))
    for lam in (0.2, 0.49, 0.5, 0.51, 0.9):
        h = _prop31_classifier(lam, alpha)
        r_minus, r_plus = exact_risks_prop31(lam, alpha)
        assert abs(empirical_01_type1(h, X) - r_minus) < 0.005
        assert abs(empirical_01_type2(h, X) - r_plus) < 0.005


def test_monte_carlo_risk_trivial_classifiers():
    scen = Scenario.prop31(0.3)
    d = BaseDictionary([ConstantClassifier(-1.0), ConstantClassifier(1.0)])
    always_neg = CombinedClassifier(d, SimplexWeights([1.0, 0.0]))
    always_pos = CombinedClassifier(d, SimplexWeights([0.0, 1.0]))
    s = hinge()
    est, hw = monte_carlo_risk(always_neg, s, scen, "type1_01", 1000, seed=1)
    assert est == 0.0 and hw == 0.0
    est, _ = monte_carlo_risk(always_pos, s, scen, "type1_01", 1000, seed=1)
    assert est == 1.0
    est, _ = monte_carlo_risk(always_neg, s, scen, "type2_phi", 1000, seed=1)
    assert est == pytest.approx(2.0)  # phi(-(-1)) = phi(1) = 2 for hinge


def test_monte_carlo_risk_consistency():
    scen = Scenario.prop31(0.25)
    h = _prop31_classifier(0.2, 0.25)
    est, hw = monte_carlo_risk(h, hinge(), scen, "type1_01", 40000, seed=5)
    assert abs(est - 0.25) <= 4 * max(hw, 1e-4)
    est2, hw2 = monte_carlo_risk(h, hinge(), scen, "type1_01", 40000, seed=5)
    assert (est2, hw2) == (est, hw)  # same seed, same estimate


def test_monte_carlo_risk_validation():
    scen = Scenario.prop31(0.3)
    h = _prop31_classifier(0.2, 0.3)
    with pytest.raises(DomainError):
        monte_carlo_risk(h, hinge(), scen, "type3_01", 1000, seed=0)
    with pytest.raises(DomainError):
        monte_carlo_risk(h, hinge(), scen, "type1_01", 10, seed=0)
    with pytest.raises(UnknownScenario):
        monte_carlo_risk(h, hinge(), object(), "type1_01", 1000, seed=0)


def test_sample_shapes_and_empty_class():
    s = Sample(np.zeros(3), np.ones(2))
    assert s.negatives.shape == (3, 1)
    assert s.n_minus == 3 and s.n_plus == 2
    h = _prop31_classifier(0.4, 0.3)
    with pytest.raises(EmptySample):
        empirical_phi_type1(h, hinge(), np.empty((0, 1)))
    with pytest.raises(EmptySample):
        empirical_01_type2(h, np.empty((0, 1)))


def test_weighted_atoms_match_empirical_mean():
    rng = np.random.default_rng(8)
    H = rng.choice([-1.0, 1.0], size=(60, 2))
    atoms = empirical_atoms(H)
    s = hinge()
    lam = np.array([0.3, 0.7])
    assert atoms.phi_risk(lam, s, 1.0) == pytest.approx(
        phi_risk_from_matrix(H, lam, s, 1.0))
    grid = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    vals = atoms.phi_risk_grid(grid, s, -1.0)
    for row, v in zip(grid, vals):
        assert v == pytest.approx(phi_risk_from_matrix(H, row, s, -1.0))


def test_weighted_atoms_validation():
    with pytest.raises(DomainError):
        WeightedAtoms(np.zeros((3, 2)), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        WeightedAtoms(np.zeros((2, 2)), np.array([0.7, 0.7]))
    # NaN passed the weight-sum check, and gamma_curve then read every
    # level as infeasible
    H = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    for bad_H, bad_w in ((H, [np.nan, 1.0]), (H, [np.inf, 0.0]),
                         ([[-1.0, np.nan], [-1.0, -1.0]], [0.5, 0.5]),
                         ([[-1.0, np.inf], [-1.0, -1.0]], [0.5, 0.5])):
        with pytest.raises(DomainError, match="finite"):
            WeightedAtoms(bad_H, bad_w)


def test_atom_grid_risks_score_bounded_blocks():
    # K atoms are scored _ATOM_BLOCK_PAIRS // K grid points at a time (at
    # least one), for a large atom set and a small one alike.  The 20k rows
    # stay unmerged: empirical_atoms would collapse them to four atoms
    sizes = []
    base = hinge()

    def recording(z):
        sizes.append(z.size)
        return base._fn(z)

    def run_sizes(points, k):
        run = max(1, risk._ATOM_BLOCK_PAIRS // k)
        return [k * min(run, points - i) for i in range(0, points, run)]

    s = dataclasses.replace(base, _fn=recording)
    rng = np.random.default_rng(6)
    H = rng.choice([-1.0, 1.0], size=(20_000, 2))
    grid = np.column_stack([np.linspace(0.0, 1.0, 1001), np.linspace(1.0, 0.0, 1001)])
    atoms = WeightedAtoms(H, np.full(H.shape[0], 1.0 / H.shape[0]))
    vals = atoms.phi_risk_grid(grid, s, 1.0)
    assert sizes == run_sizes(grid.shape[0], H.shape[0])
    want = atoms.weights @ base.eval(H @ grid.T)
    np.testing.assert_allclose(vals, want, rtol=0.0, atol=1e-12)

    H3 = rng.choice([-1.0, 1.0], size=(3, 3))
    three = WeightedAtoms(H3, rng.dirichlet(np.ones(3)))
    chunk = rng.dirichlet(np.ones(3), 200_000)
    sizes.clear()
    got = three.phi_risk_grid(chunk, s, -1.0)
    assert sizes == run_sizes(chunk.shape[0], 3) and len(sizes) > 1
    run = risk._ATOM_BLOCK_PAIRS // 3
    want = [three.weights @ base.eval(-(H3 @ chunk[i:i + run].T))
            for i in range(0, chunk.shape[0], run)]
    np.testing.assert_array_equal(got, np.concatenate(want))


def test_empirical_atoms_merge_identical_rows():
    # stump rows repeat, so 5000 draws collapse to at most 2^3 atoms whose
    # risk and Monte Carlo half-width match the unmerged rows
    rng = np.random.default_rng(9)
    H = rng.choice([-1.0, 1.0], size=(5000, 3))
    atoms = empirical_atoms(H)
    assert atoms.H.shape[0] <= 8 and atoms.n == 5000
    assert atoms.weights * atoms.n == pytest.approx(
        [np.sum(np.all(H == row, axis=1)) for row in atoms.H], abs=1e-9)
    lam = np.array([0.2, 0.5, 0.3])
    for s in (hinge(), logit()):
        for sign in (1.0, -1.0):
            est, hw = atoms.estimate(lam, s, sign)
            want, want_hw = risk._mc_estimate(s.eval(sign * (H @ lam)))
            assert abs(est - want) <= 1e-12 and abs(hw - want_hw) <= 1e-12
            assert abs(atoms.phi_risk(lam, s, sign) - want) <= 1e-12
    # an exact law has no Monte Carlo error
    exact = WeightedAtoms(atoms.H, atoms.weights)
    assert exact.estimate(lam, hinge(), 1.0) == (exact.phi_risk(lam, hinge(), 1.0), 0.0)


def test_sign_row_atoms_equal_the_sorted_rows(monkeypatch):
    # a +-1 matrix with M <= 63 is merged by integer row keys; the lexsort
    # path, which 0.5 * H takes, is the reference: halving and doubling are exact
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(risk.np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    rng = np.random.default_rng(17)
    signs = [rng.choice([-1.0, 1.0], size=(1, 1)), rng.choice([-1.0, 1.0], size=(300, 1)),
             np.tile(rng.choice([-1.0, 1.0], size=(1, 4)), (50, 1)),
             rng.choice([-1.0, 1.0], size=(500, 63)),
             rng.choice([-1.0, 1.0], size=(2000, 3)),
             np.where(rng.uniform(size=(400, 63)) < 0.02, 1.0, -1.0)]
    for H in signs:
        sorts.clear()
        got = empirical_atoms(H)
        assert sorts == []
        ref = empirical_atoms(0.5 * H)
        assert sorts == [1]
        assert (2.0 * ref.H).tobytes() == got.H.tobytes()
        assert ref.weights.tobytes() == got.weights.tobytes() and ref.n == got.n
    # one entry off +-1, or 64 columns, takes the lexsort path
    H = rng.choice([-1.0, 1.0], size=(40, 3))
    for bad in (0.5, np.nan, -0.0):
        odd = H.copy()
        odd[7, 1] = bad
        sorts.clear()
        try:
            empirical_atoms(odd)
        except DomainError:  # NaN is no atom
            assert np.isnan(bad)
        assert sorts == [1]
    sorts.clear()
    wide = empirical_atoms(rng.choice([-1.0, 1.0], size=(30, 64)))
    assert sorts == [1] and wide.H.shape == (30, 64)


def test_empirical_atoms_reject_an_empty_sample():
    with pytest.raises(EmptySample):
        empirical_atoms(np.empty((0, 2)))
