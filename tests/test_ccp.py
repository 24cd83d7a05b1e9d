"""Chance-constrained optimization over the simplex."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from npconvex import ccp
from npconvex.ccp import (AffineForm, CCPInstance, SmoothForm, ccp_bound,
                          chance_feasibility_estimate, chance_violation_from_matrix,
                          evaluate_constraint_bases, grid_oracle_ccp,
                          linear_objective, solve_ccp)
from npconvex.errors import (BaseRangeError, DomainError, EmptySample,
                             Infeasible, SampleTooSmall)
from npconvex.hypothesis import (BaseDictionary, ConstantClassifier,
                                 DecisionStump, FunctionClassifier)
from npconvex.np_solver import kappa
from npconvex.surrogate import hinge, logit


def _const_columns_instance(n, alpha=0.25, delta=0.1):
    # g1 = -1 and g2 = +1 on every draw: F(lam, xi) = 1 - 2*lam1
    G = np.column_stack([-np.ones(n), np.ones(n)])
    return CCPInstance(alpha=alpha, delta=delta, surrogate=hinge(),
                       g_matrix=G, **linear_objective([1.0, 0.0]))


def test_closed_form_two_column_instance():
    n = 10 ** 4
    inst = _const_columns_instance(n)
    sol = solve_ccp(inst)
    level = 0.25 - kappa(1.0, 2, 0.1) / math.sqrt(n)
    lam1_star = max(0.0, 1.0 - level / 2.0)
    assert sol.status == "optimal"
    assert sol.margin_level == pytest.approx(level, abs=1e-15)
    assert sol.weights.lam[0] == pytest.approx(lam1_star, abs=1e-9)
    assert sol.objective_value == pytest.approx(lam1_star, abs=1e-9)
    # hinge on constants: constraint value is exactly 2*lam2
    assert sol.empirical_constraint_value == pytest.approx(
        2.0 * sol.weights.lam[1], abs=1e-9)
    assert sol.empirical_constraint_value <= level + 1e-8


def test_all_negative_bases_unconstrained():
    n = 10 ** 4
    G = np.column_stack([-np.ones(n), -np.ones(n)])
    inst = CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(), g_matrix=G,
                       **linear_objective([0.7, 0.2]))
    sol = solve_ccp(inst)
    # phi(-1) = 0 kills the constraint; the objective minimizer is e2
    assert sol.empirical_constraint_value == pytest.approx(0.0, abs=1e-12)
    assert sol.weights.lam[1] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(0.2, abs=1e-9)


def test_sample_too_small():
    inst = _const_columns_instance(100)
    with pytest.raises(SampleTooSmall):
        solve_ccp(inst)


def test_infeasible_instance():
    n = 10 ** 4
    G = np.column_stack([np.ones(n), np.ones(n)])  # phi(F) = 2 always
    inst = CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(), g_matrix=G,
                       **linear_objective([1.0, 0.0]))
    with pytest.raises(Infeasible):
        solve_ccp(inst)


def test_training_conservativeness():
    # any optimal solution keeps the training violation fraction below alpha
    rng = np.random.default_rng(9)
    n = 4 * 10 ** 4
    for trial in range(5):
        xi = rng.uniform(0, 1, n)
        G = np.column_stack([-np.ones(n), 2.0 * xi - 1.0])
        inst = CCPInstance(alpha=0.3, delta=0.1, surrogate=hinge(), g_matrix=G,
                           **linear_objective([1.0, 0.0]))
        sol = solve_ccp(inst)
        assert sol.empirical_constraint_value <= 0.3
        assert chance_violation_from_matrix(sol.weights.lam, G) <= 0.3


def test_solver_matches_grid_oracle():
    rng = np.random.default_rng(31)
    n = 2 * 10 ** 4
    for m in (2, 3):
        for _ in range(5):
            cols = [-np.ones(n)]
            for _ in range(m - 1):
                cols.append(rng.uniform(-1.0, 1.0, n))
            G = np.column_stack(cols)
            coeffs = rng.uniform(-1.0, 1.0, m)
            inst = CCPInstance(alpha=0.3, delta=0.1, surrogate=hinge(),
                               g_matrix=G, **linear_objective(coeffs))
            sol = solve_ccp(inst)
            ref = grid_oracle_ccp(inst, resolution=1e-3)
            assert sol.objective_value <= ref.objective_value + 1e-3
            assert sol.empirical_constraint_value <= sol.margin_level + 1e-8


def test_smooth_surrogate_against_oracle():
    # logit's phi(-1) = log2(1 + 1/e) = 0.452 floors the constraint, so
    # alpha must clear it plus the kappa/sqrt(n) margin while staying
    # below the 1/2 cap; n = 1e5 at alpha = 0.49 leaves a thin corridor
    rng = np.random.default_rng(13)
    n = 10 ** 5
    G = np.column_stack([-np.ones(n), rng.uniform(-1, 1, n)])
    inst = CCPInstance(alpha=0.49, delta=0.1, surrogate=logit(), g_matrix=G,
                       **linear_objective([1.0, -0.5]))
    sol = solve_ccp(inst)
    ref = grid_oracle_ccp(inst, resolution=1e-3)
    assert sol.objective_value <= ref.objective_value + 1e-3
    assert sol.empirical_constraint_value <= sol.margin_level + 1e-8


def test_smooth_objective_with_gradient_is_certified():
    # f(lam) = |lam - t|^2 pulls toward the second base, which the
    # constraint caps; the smooth route certifies its answer
    rng = np.random.default_rng(4)
    n = 10 ** 4
    G = np.column_stack([-np.ones(n), rng.uniform(-1, 1, n), rng.uniform(0, 1, n)])
    t = np.array([0.0, 0.3, 0.7])
    inst = CCPInstance(alpha=0.3, delta=0.1, surrogate=hinge(), g_matrix=G,
                       objective=SmoothForm(lambda lam: float(np.sum((lam - t) ** 2)),
                                            lambda lam: 2.0 * (lam - t)))
    sol = solve_ccp(inst)
    ref = grid_oracle_ccp(inst, resolution=1e-2)
    assert sol.status == "optimal"
    assert 0.0 <= sol.gap <= 1e-5
    assert sol.objective_value <= ref.objective_value + 1e-9
    assert sol.empirical_constraint_value <= sol.margin_level + 1e-8
    for out in (sol, ref):  # both report the objective at their own weights
        assert out.objective_value == inst.objective.value(out.weights.lam)


def test_affine_objective_with_a_constant_is_reported_at_the_weights():
    rng = np.random.default_rng(7)
    n = 10 ** 4
    G = np.column_stack([-np.ones(n), rng.uniform(-1, 1, n), rng.uniform(0, 1, n)])
    objective = AffineForm(0.25, [0.5, -0.2, 0.1])
    inst = CCPInstance(alpha=0.3, delta=0.1, surrogate=hinge(), g_matrix=G,
                       objective=objective)
    assert isinstance(inst.objective.coeffs, np.ndarray)
    sol, ref = solve_ccp(inst), grid_oracle_ccp(inst, resolution=1e-3)
    assert sol.status == "optimal"
    assert sol.objective_value <= ref.objective_value + 1e-3
    for out in (sol, ref):
        assert out.objective_value == objective.value(out.weights.lam)


def test_grid_oracle_reports_exactly_the_objective_at_its_weights():
    # the scan scored a point inside a chunk product, whose last bits
    # followed the other points of the chunk (seed 1: 0.23535409401896648
    # against 0.2353540940189665 at lambda)
    for seed in (1, 13, 29, 36):
        rng = np.random.default_rng([seed, 4])
        n = 2000
        G = np.column_stack([-np.ones(n)] + [rng.uniform(-1.0, 1.0, n) for _ in range(2)])
        alpha, c = float(rng.uniform(0.3, 0.45)), rng.uniform(-1.0, 1.0, 3)
        inst = CCPInstance(alpha=alpha, delta=0.1, surrogate=hinge(), g_matrix=G,
                           **linear_objective(c))
        ref = grid_oracle_ccp(inst, resolution=1.0 / int(rng.integers(2, 401)))
        assert ref.objective_value == float(c @ ref.weights.lam)


def test_instance_validation():
    with pytest.raises(DomainError):
        CCPInstance(alpha=0.5, delta=0.1, surrogate=hinge(),
                    g_matrix=np.zeros((3, 2)), **linear_objective([1.0, 0.0]))
    with pytest.raises(DomainError):
        CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(),
                    g_matrix=np.full((3, 2), 1.5),
                    **linear_objective([1.0, 0.0]))
    with pytest.raises(DomainError):
        CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(),
                    **linear_objective([1.0, 0.0]))
    with pytest.raises(DomainError):
        CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(),
                    g_matrix=np.zeros((3, 2)),
                    **linear_objective([1.0, 0.0, 0.0]))
    # the objective is one form: a bare callable is neither, and the
    # certificate needs a gradient
    for bad in (lambda lam: float(lam[0]), [1.0, 0.0],
                SmoothForm(lambda lam: float(lam[0]), None),
                SmoothForm(None, lambda lam: np.array([1.0, 0.0]))):
        with pytest.raises(DomainError):
            CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(),
                        g_matrix=np.zeros((3, 2)), objective=bad)
    for bad in ([0.4, math.nan], [math.inf, 0.0], [math.nan, math.nan]):
        with pytest.raises(DomainError):
            CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(),
                        g_matrix=np.zeros((3, 2)), **linear_objective(bad))
    for const in (math.nan, math.inf):
        with pytest.raises(DomainError):
            CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(), g_matrix=np.zeros((3, 2)),
                        objective=AffineForm(const, np.array([1.0, 0.0])))
    with pytest.raises(DomainError):
        CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(), g_matrix=np.zeros((3, 2)),
                    objective=AffineForm(0.0, np.ones((1, 2))))
    # three fields for one objective could disagree; they no longer exist
    with pytest.raises(TypeError, match="objective_grad"):
        CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(), g_matrix=np.zeros((3, 2)),
                    objective=lambda lam: float(lam[0]),
                    objective_grad=lambda lam: np.array([0.0, 1.0]),
                    linear_coeffs=np.array([1.0, 0.0]))


def test_instance_takes_only_evaluated_columns():
    # g_matrix is the one input form; bases and draws go through
    # evaluate_constraint_bases first
    bases = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)])
    draws = np.linspace(0.0, 1.0, 5)
    with pytest.raises(DomainError, match="need g_matrix; evaluate_constraint_bases"):
        CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(),
                    **linear_objective([1.0, 0.0]))
    with pytest.raises(TypeError, match="constraint_bases"):
        CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(), constraint_bases=bases,
                    sample=draws, **linear_objective([1.0, 0.0]))
    inst = CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(),
                       g_matrix=evaluate_constraint_bases(bases, draws),
                       **linear_objective([1.0, 0.0]))
    np.testing.assert_array_equal(inst.g_matrix, bases.evaluate_matrix(draws[:, None]))


def _per_row(*fns):
    return BaseDictionary([FunctionClassifier(g) for g in fns])


def test_evaluate_constraint_bases():
    bases = _per_row(lambda x: -1.0, lambda x: 2.0 * float(x[0]) - 1.0)
    G = evaluate_constraint_bases(bases, np.array([0.0, 0.5, 1.0]))
    assert G.shape == (3, 2)
    assert list(G[:, 1]) == [-1.0, 0.0, 1.0]
    with pytest.raises(EmptySample):
        evaluate_constraint_bases(bases, np.empty(0))
    with pytest.raises(BaseRangeError, match=r"^base 0 returned 3\.0, outside \[-1, 1\]$"):
        evaluate_constraint_bases(_per_row(lambda x: 3.0), np.array([1.0]))
    with pytest.raises(BaseRangeError, match=r"^base 1 returned nan, outside \[-1, 1\]$"):
        evaluate_constraint_bases(_per_row(lambda x: -1.0, lambda x: math.nan),
                                  np.array([1.0]))


def test_chance_feasibility_estimate_rejects_nan_bases():
    # NaN used to pass the range check: F = NaN is never > 0, so the
    # estimate read violation_rate 0.0 and feasible_for_original True
    bases = _per_row(lambda x: -1.0, lambda x: math.nan)
    with pytest.raises(BaseRangeError, match=r"^base 1 returned nan, outside \[-1, 1\]$"):
        chance_feasibility_estimate([0.5, 0.5], bases, np.linspace(0, 1, 50), alpha=0.1)


def test_chance_feasibility_estimate_reads_simplex_weights():
    # NaN weights never give F > 0, so the estimate read violation_rate
    # 0.0 and feasible_for_original True
    bases = _per_row(lambda x: -1.0, lambda x: 1.0)
    draws = np.linspace(0.0, 1.0, 50)
    for lam in ([math.nan, math.nan], [0.5, math.nan], [0.7, 0.7], [1.5, -0.5]):
        with pytest.raises(DomainError):
            chance_feasibility_estimate(lam, bases, draws, alpha=0.1)


def test_chance_violation_from_matrix_reads_simplex_weights():
    # NaN weights never give F > 0, so the rate read 0.0; off-simplex
    # weights were scored as given
    G = np.column_stack([-np.ones(20), np.linspace(-1.0, 1.0, 20), np.ones(20)])
    for lam in ([math.nan, math.nan, math.nan], [0.5, 0.5, 7.0], [1.5, 0.0, -0.5]):
        with pytest.raises(DomainError):
            chance_violation_from_matrix(lam, G)
    for lam, g in (([0.5, 0.5], G), ([1.0], G), ([0.5, 0.5], G[:, 0])):
        with pytest.raises(DomainError):
            chance_violation_from_matrix(lam, g)
    assert chance_violation_from_matrix([0.0, 0.0, 1.0], G) == 1.0
    assert chance_violation_from_matrix([0.5, 0.5, 0.0], G) == 0.0


def test_per_row_bases_get_one_draw_at_a_time():
    # (n, d) draws hand each FunctionClassifier one row of shape (d,)
    def on_row(x):
        assert np.shape(x) == (2,)
        return float(x[1])

    rows = np.array([[0.0, -0.5], [1.0, 0.25]])
    assert evaluate_constraint_bases(_per_row(on_row), rows).tolist() == [[-0.5], [0.25]]


def test_constraint_bases_are_one_dictionary():
    # per-row callables are wrapped by the caller, not re-wrapped here
    callables = [lambda x: -1.0, lambda x: 2.0 * float(x[0]) - 1.0]
    draws = np.linspace(0.0, 1.0, 5)
    pattern = r"must be a BaseDictionary, got list; .*FunctionClassifier\(g\)"
    with pytest.raises(DomainError, match=pattern):
        evaluate_constraint_bases(callables, draws)
    with pytest.raises(DomainError, match=pattern):
        chance_feasibility_estimate([0.5, 0.5], callables, draws, alpha=0.1)


def test_weight_count_is_checked_before_any_base_is_called():
    calls = []

    def g(x):
        calls.append(x)
        return -1.0

    with pytest.raises(DomainError, match="weight length"):
        chance_feasibility_estimate([0.2, 0.3, 0.5], _per_row(g, g),
                                    np.linspace(0.0, 1.0, 1000), alpha=0.1)
    assert calls == []


def test_every_base_kind_goes_through_evaluate_matrix(monkeypatch):
    # BaseDictionary holds the one base loop and the one range check:
    # a dictionary of per-row FunctionClassifier bases and a stock one
    # both pass through as is
    calls = []
    evaluate_matrix = BaseDictionary.evaluate_matrix

    def spy(self, X):
        calls.append(self)
        return evaluate_matrix(self, X)

    monkeypatch.setattr(BaseDictionary, "evaluate_matrix", spy)
    draws = np.linspace(0.0, 1.0, 7).reshape(-1, 1)
    per_row = _per_row(lambda x: -1.0, lambda x: 2.0 * float(x[0]) - 1.0)
    batch = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, -1)])
    for bases in (per_row, batch):
        evaluate_constraint_bases(bases, draws)
        chance_feasibility_estimate([0.5, 0.5], bases, draws, alpha=0.1)
        CCPInstance(alpha=0.25, delta=0.1, surrogate=hinge(),
                    g_matrix=evaluate_constraint_bases(bases, draws),
                    **linear_objective([1.0, 0.0]))
    assert len(calls) == 6
    assert all(d is per_row for d in calls[:3])
    assert all(d is batch for d in calls[3:])


def test_chance_feasibility_estimate_closed_form():
    # F(lam, xi) = -lam1 + lam2*(2 xi - 1) with xi uniform: for
    # lam = (1/4, 3/4), F > 0 iff xi > 2/3, so the violation rate is 1/3
    bases = _per_row(lambda x: -1.0, lambda x: 2.0 * float(x[0]) - 1.0)
    rng = np.random.default_rng(6)
    draws = rng.uniform(0, 1, 10 ** 5)
    out = chance_feasibility_estimate([0.25, 0.75], bases, draws, alpha=0.4)
    se = math.sqrt((1 / 3) * (2 / 3) / draws.size)
    assert abs(out["violation_rate"] - 1.0 / 3.0) < 4 * se
    assert out["feasible_for_original"]
    strict = chance_feasibility_estimate([0.25, 0.75], bases, draws, alpha=0.25)
    assert not strict["feasible_for_original"]
    # degenerate corners
    zero = chance_feasibility_estimate([1.0, 0.0], bases, draws, alpha=0.1)
    assert zero["violation_rate"] == 0.0
    one = chance_feasibility_estimate([0.0, 1.0], _per_row(lambda x: 1.0, lambda x: 1.0),
                                      draws[:100], alpha=0.1)
    assert one["violation_rate"] == 1.0


def test_ccp_bound_values_and_warning():
    assert ccp_bound(10.0, 0.5, 0.25, 10 ** 6, 2.0) == pytest.approx(0.64)
    # scales exactly as 1/sqrt(n)
    b1 = ccp_bound(10.0, 0.5, 0.25, 4 * 10 ** 6, 2.0)
    assert b1 == pytest.approx(0.32)
    with pytest.raises(DomainError):
        ccp_bound(10.0, 0.0, 0.25, 10 ** 6, 2.0)
    with pytest.raises(DomainError):
        ccp_bound(10.0, 1.0, 0.25, 10 ** 6, 2.0)
    # below the guarantee threshold n0 the bound is returned without a
    # warning: grows without bound as eps -> 1, and at a small n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ccp_bound(10.0, 0.999, 0.25, 10 ** 8, 2.0) > 30.0
        assert ccp_bound(10.0, 0.5, 0.25, 100, 2.0) == pytest.approx(64.0)
        ccp_bound(10.0, 0.5, 0.25, 10 ** 6, 2.0)  # above threshold


def test_solution_json():
    sol = solve_ccp(_const_columns_instance(10 ** 4))
    blob = sol.to_json()
    assert blob["status"] == "optimal"
    assert blob["n"] == 10 ** 4
    assert len(blob["weights"]) == 2


def test_g_matrix_within_the_range_tolerance_is_clipped():
    # CCPInstance accepted -1 - 5e-10, and both routes then raised
    # DomainError on the surrogate argument
    rng = np.random.default_rng(0)
    n = 10 ** 4
    G = np.column_stack([-np.ones(n), np.where(rng.uniform(size=n) < 0.5, -1.0 - 5e-10, 1.0)])
    inst = CCPInstance(alpha=0.3, delta=0.1, surrogate=hinge(), g_matrix=G,
                       **linear_objective([1.0, 0.0]))
    assert inst.g_matrix.min() == -1.0 and G.min() < -1.0  # the caller's matrix is kept
    assert solve_ccp(inst).status == "optimal"
    # the logit floor, mean phi(-1) = 0.45, lies above the level 0.19
    inst = CCPInstance(alpha=0.3, delta=0.1, surrogate=logit(), g_matrix=G,
                       **linear_objective([1.0, 0.0]))
    with pytest.raises(Infeasible):
        solve_ccp(inst)
    with pytest.raises(DomainError):
        CCPInstance(alpha=0.3, delta=0.1, surrogate=hinge(), g_matrix=G * (1.0 + 1e-8),
                    **linear_objective([1.0, 0.0]))


def test_grid_oracle_is_independent_of_the_solver(monkeypatch):
    from npconvex import _solver_core as core
    from npconvex.hypothesis import BaseDictionary

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not share the solver's code path")

    monkeypatch.setattr(BaseDictionary, "column_means", forbidden)
    monkeypatch.setattr(core, "_affine_solve", forbidden)
    monkeypatch.setattr(core, "risk_form", forbidden)
    scans = []

    def spy(name, real):
        return lambda *args: scans.append(name) or real(*args)
    for name in ("affine_window", "iter_grid_chunks"):
        monkeypatch.setattr(ccp, name, spy(name, getattr(ccp, name)))
    rng = np.random.default_rng(31)
    n = 2 * 10 ** 4
    G = np.column_stack([-np.ones(n), rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)])
    c = np.array([0.5, -1.0, 0.25])
    for m in (2, 3):
        inst = CCPInstance(alpha=0.3, delta=0.1, surrogate=hinge(), g_matrix=G[:, :m],
                           **linear_objective(c[:m]))
        scans.clear()
        for resolution in (1e-2, 1e-3):
            ref = grid_oracle_ccp(inst, resolution=resolution)
            assert ref.empirical_constraint_value <= ref.margin_level + 1e-12
        # hinge at M = 2 and M = 3 scans the affine window at every resolution
        assert scans.count("affine_window") == 2
