"""Chance-constrained optimization via an empirical surrogate margin.

The target program asks for P(F(lambda, xi) <= 0) >= 1 - alpha with
F(lambda, xi) = sum_j lambda_j g_j(xi), g_j valued in [-1, 1].  Given n
scenario draws, the surrogate program constrains the empirical mean of
phi(F(lambda, xi_i)) to alpha - kappa/sqrt(n), which makes the feasible
set convex and, with the concentration margin, keeps every solution
feasible for the original chance constraint with probability 1 - 2 delta.
Shares the simplex solver engine with the classification program (same
shape, one convex constraint over the simplex) and its base evaluation:
the constraint functions g_j are one BaseDictionary, evaluated through
BaseDictionary.evaluate_matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _solver_core as core
from ._grids import affine_window, argmin_feasible, grid_steps, iter_grid_chunks
from ._solver_core import AffineForm, SmoothForm  # the two forms of a CCP objective
from .errors import DomainError, EmptySample, Infeasible, check_count, check_real
from .hypothesis import RANGE_TOL, BaseDictionary, SimplexWeights
from .np_solver import _excess_denominator, alpha_kappa, kappa
from .risk import phi_risk_from_matrix, sample_risk_grid
from .surrogate import Surrogate


def _require_dictionary(bases) -> BaseDictionary:
    if not isinstance(bases, BaseDictionary):
        raise DomainError(f"constraint bases must be a BaseDictionary, got "
                          f"{type(bases).__name__}; wrap per-row callables as "
                          "BaseDictionary([FunctionClassifier(g), ...])")
    return bases


def evaluate_constraint_bases(constraint_bases: BaseDictionary, draws) -> np.ndarray:
    """(n, M) matrix of g_j(xi_i) from BaseDictionary.evaluate_matrix.

    Draws become float, 1-D draws (n, 1) rows; NaN or a value beyond
    1 + RANGE_TOL in magnitude raises BaseRangeError naming the base, and
    a smaller overshoot is clipped into [-1, 1]."""
    xi = np.asarray(draws, dtype=float)
    if xi.shape[0] == 0:
        raise EmptySample("no scenario draws")
    return _require_dictionary(constraint_bases).evaluate_matrix(xi)


@dataclass
class CCPInstance:
    """One empirical chance-constrained problem.

    `g_matrix` holds the evaluated g_j(xi_i) columns, as
    evaluate_constraint_bases(constraint_bases, draws) returns them, with
    dust within RANGE_TOL beyond [-1, 1] clipped.  The objective f is one
    solver form: AffineForm(const, coeffs) for f(lambda) = const + coeffs
    @ lambda, which unlocks the exact affine solve for affine surrogates,
    or SmoothForm(fn, grad_fn), a convex value oracle with the
    (sub)gradient oracle that the solver's certificate needs.
    """

    alpha: float
    delta: float
    surrogate: Surrogate
    objective: core.Form
    g_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        check_real(self.alpha, "alpha", 0, 0.5)
        check_real(self.delta, "delta", 0, 0.5)
        if self.g_matrix is None:
            raise DomainError("need g_matrix; evaluate_constraint_bases(bases, draws) "
                              "gives it")
        self.g_matrix = np.asarray(self.g_matrix, dtype=float)
        if self.g_matrix.ndim != 2 or self.g_matrix.shape[0] < 1:
            raise DomainError("g_matrix must be a nonempty (n, M) matrix")
        if not np.all(np.isfinite(self.g_matrix)):
            raise DomainError("g_matrix contains non-finite entries")
        peak = float(np.max(np.abs(self.g_matrix)))
        if peak > 1.0 + RANGE_TOL:
            raise DomainError(f"g_matrix holds an entry of magnitude {peak}, beyond 1")
        if peak > 1.0:  # float dust, clipped into the surrogates' domain
            self.g_matrix = np.clip(self.g_matrix, -1.0, 1.0)
        f = self.objective
        if isinstance(f, AffineForm):
            const = float(check_real(f.const, "objective const"))
            self.objective = f = AffineForm(const, np.asarray(f.coeffs, dtype=float))
            if f.coeffs.shape != (self.m,) or not np.all(np.isfinite(np.r_[f.const, f.coeffs])):
                raise DomainError(f"an affine objective needs a finite const and {self.m} "
                                  "finite coeffs, one per base")
        elif not isinstance(f, SmoothForm):
            raise DomainError(f"objective must be an AffineForm or a SmoothForm, got "
                              f"{type(f).__name__}")
        elif not (callable(f.fn) and callable(f.grad_fn)):  # the certificate needs both
            raise DomainError("a smooth objective needs callable fn and grad_fn")

    @property
    def n(self) -> int:
        return self.g_matrix.shape[0]

    @property
    def m(self) -> int:
        return self.g_matrix.shape[1]


@dataclass
class CCPSolution:
    weights: SimplexWeights
    kappa: float
    margin_level: float
    empirical_constraint_value: float
    objective_value: float
    n: int
    iterations: int
    status: str
    #: certified optimality gap of the solver's objective; None for the grid oracle
    gap: Optional[float] = None

    def to_json(self) -> dict:
        return {
            "weights": self.weights.to_json(),
            "kappa": self.kappa,
            "margin_level": self.margin_level,
            "empirical_constraint_value": self.empirical_constraint_value,
            "objective_value": self.objective_value,
            "n": self.n,
            "iterations": self.iterations,
            "status": self.status,
            "gap": self.gap,
        }


def linear_objective(coeffs) -> dict:
    """{"objective": AffineForm(0.0, coeffs)}: CCPInstance keywords for f = coeffs @ lambda."""
    return {"objective": AffineForm(0.0, np.asarray(coeffs, dtype=float))}


def solve_ccp(inst: CCPInstance) -> CCPSolution:
    """Minimize the objective s.t. mean phi(F(lambda, xi_i)) <= alpha - kappa/sqrt(n)."""
    s = inst.surrogate
    kap = kappa(s.lipschitz, inst.m, inst.delta)
    level = alpha_kappa(inst.alpha, kap, inst.n)

    constraint = core.risk_form(inst.g_matrix, s, +1.0)
    res = core.solve_simplex_program(inst.m, inst.objective, constraint, level)
    lam = res.lam
    return CCPSolution(
        weights=SimplexWeights(lam),
        kappa=kap,
        margin_level=level,
        empirical_constraint_value=phi_risk_from_matrix(inst.g_matrix, lam, s, +1.0),
        objective_value=inst.objective.value(lam),
        n=inst.n,
        iterations=res.iterations,
        status=res.status,
        gap=res.gap,
    )


def grid_oracle_ccp(inst: CCPInstance, resolution: float) -> CCPSolution:
    """Exhaustive simplex-grid referee for M <= 3 (the affine window's
    candidates for an affine surrogate and objective at M = 2 or 3); equal
    scored values go to the lexicographically smallest weights (first hit
    in scan order).  Points tied in exact arithmetic but separated by
    rounding go to the lower scored value, and on the window a grid row
    along which the objective is flat offers only the points around its
    first feasible one.  Reports the objective and constraint values at
    the winning weights, by the formulas solve_ccp reports."""
    if inst.m > 3:
        raise DomainError(f"grid oracle supports M <= 3, got {inst.m}")
    k = grid_steps(resolution)
    s, f = inst.surrogate, inst.objective
    kap = kappa(s.lipschitz, inst.m, inst.delta)
    level = alpha_kappa(inst.alpha, kap, inst.n)
    chunks = iter_grid_chunks(inst.m, k)
    if s.affine_coefficients is not None and inst.m in (2, 3) and isinstance(f, AffineForm):
        a, b = s.affine_coefficients
        chunks = [affine_window(a, b * inst.g_matrix.mean(axis=0), level, k, f.coeffs)]
    if isinstance(f, AffineForm):
        def objective_values(chunk):
            return f.const + chunk @ f.coeffs
    else:
        def objective_values(chunk):
            return np.asarray([f.value(lam) for lam in chunk])
    [(best_lam, _)] = argmin_feasible(chunks, sample_risk_grid(inst.g_matrix, s, +1.0),
                                      objective_values, [level])
    if best_lam is None:
        raise Infeasible(f"no grid point satisfies the margin constraint {level}")
    return CCPSolution(
        weights=SimplexWeights(best_lam),
        kappa=kap,
        margin_level=level,
        empirical_constraint_value=phi_risk_from_matrix(inst.g_matrix, best_lam, s, +1.0),
        objective_value=f.value(best_lam),
        n=inst.n,
        iterations=0,
        status="optimal",
    )


def chance_feasibility_estimate(lam, constraint_bases: BaseDictionary, fresh_draws,
                                alpha: float) -> dict:
    """Empirical violation rate of F(lambda, xi) > 0 on held-out draws.

    feasible_for_original follows the complement convention: the empirical
    P(F <= 0) must reach 1 - alpha.
    """
    check_real(alpha, "alpha", 0, 1)
    lam = SimplexWeights(lam).lam
    if lam.size != _require_dictionary(constraint_bases).m:
        raise DomainError("weight length does not match the number of bases")
    G = evaluate_constraint_bases(constraint_bases, fresh_draws)
    rate = chance_violation_from_matrix(lam, G)
    return {"violation_rate": rate, "feasible_for_original": bool(1.0 - rate >= 1.0 - alpha)}


def chance_violation_from_matrix(lam, G: np.ndarray) -> float:
    """Violation rate when the g_j(xi) columns are already evaluated:
    lam is read through SimplexWeights, one weight per column of G."""
    lam = SimplexWeights(lam).lam
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[1] != lam.size:
        raise DomainError(f"{lam.size} weights for a g matrix of shape {G.shape}")
    return float(np.mean(G @ lam > 0.0))


def ccp_bound(kappa_value: float, eps: float, alpha: float, n: int,
              phi_at_one: float) -> float:
    """Excess objective bound 4 phi(1) kappa / ((1 - eps) alpha sqrt(n)).

    The guarantee needs n at least (4 kappa / ((1 - eps) alpha))^2, the
    n0 of np_solver.n0_and_bound; below it the bound is returned all the
    same, uncertified and without a warning.
    """
    check_real(eps, "eps", 0, 1)
    denom = _excess_denominator(kappa_value, eps, alpha, phi_at_one)
    check_count(n, "n")
    return check_real(4.0 * phi_at_one * kappa_value / (denom * math.sqrt(n)), "bound")
