"""Chance-constrained optimization via an empirical surrogate margin.

The target program asks for P(F(lambda, xi) <= 0) >= 1 - alpha with
F(lambda, xi) = sum_j lambda_j g_j(xi), g_j valued in [-1, 1].  Given n
scenario draws, the surrogate program constrains the empirical mean of
phi(F(lambda, xi_i)) to alpha - kappa/sqrt(n), which makes the feasible
set convex and, with the concentration margin, keeps every solution
feasible for the original chance constraint with probability 1 - 2 delta.
Shares the simplex solver engine with the classification program (same
shape, one convex constraint over the simplex) and its base evaluation:
every g_j goes through BaseDictionary.evaluate_matrix, per-row callables
as FunctionClassifier bases.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import _solver_core as core
from ._grids import affine_window, argmin_feasible, grid_steps, iter_grid_chunks
from .errors import DomainError, EmptySample, Infeasible
from .hypothesis import (RANGE_TOL, BaseDictionary, FunctionClassifier,
                         SimplexWeights)
from .np_solver import alpha_kappa, kappa
from .risk import empirical_atoms, phi_risk_from_matrix
from .surrogate import Surrogate


def _as_dictionary(constraint_bases, ndim: int) -> BaseDictionary:
    """A BaseDictionary as is; per-row callables as FunctionClassifier bases."""
    if isinstance(constraint_bases, BaseDictionary):
        return constraint_bases
    if ndim == 1:  # the dictionary sees 1-D draws as (n, 1) rows
        constraint_bases = [lambda row, g=g: g(row[0]) for g in constraint_bases]
    return BaseDictionary([FunctionClassifier(g) for g in constraint_bases])


def evaluate_constraint_bases(constraint_bases, draws) -> np.ndarray:
    """(n, M) matrix of g_j(xi_i) from BaseDictionary.evaluate_matrix.

    constraint_bases is a BaseDictionary or per-row callables, which get
    one (d,) row per draw of (n, d) draws or one scalar per 1-D draw.
    Draws become float; a value outside [-1, 1] or NaN raises
    BaseRangeError naming the base."""
    xi = np.asarray(draws, dtype=float)
    if xi.shape[0] == 0:
        raise EmptySample("no scenario draws")
    return _as_dictionary(constraint_bases, xi.ndim).evaluate_matrix(xi)


@dataclass
class CCPInstance:
    """One empirical chance-constrained problem.

    Provide either `g_matrix` (pre-evaluated g_j(xi_i) columns) or both
    `constraint_bases` (see evaluate_constraint_bases) and `sample`.  The
    objective is a value oracle with a (sub)gradient oracle
    `objective_grad`, which the solver's certificate needs; pass
    `linear_coeffs` instead when f(lambda) = linear_coeffs @ lambda, which
    unlocks the exact affine solve for affine surrogates.
    """

    alpha: float
    delta: float
    surrogate: Surrogate
    objective: Callable[[np.ndarray], float]
    objective_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    linear_coeffs: Optional[np.ndarray] = None
    g_matrix: Optional[np.ndarray] = None
    constraint_bases: Optional[Union[BaseDictionary, Sequence[Callable]]] = None
    sample: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise DomainError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if not 0.0 < self.delta < 0.5:
            raise DomainError(f"delta must lie in (0, 1/2), got {self.delta}")
        if self.g_matrix is None:
            if self.constraint_bases is None or self.sample is None:
                raise DomainError("need g_matrix, or constraint_bases with sample")
            self.g_matrix = evaluate_constraint_bases(self.constraint_bases, self.sample)
        else:
            self.g_matrix = np.asarray(self.g_matrix, dtype=float)
            if self.g_matrix.ndim != 2 or self.g_matrix.shape[0] < 1:
                raise DomainError("g_matrix must be a nonempty (n, M) matrix")
            if not np.all(np.isfinite(self.g_matrix)):
                raise DomainError("g_matrix contains non-finite entries")
            if float(np.max(np.abs(self.g_matrix))) > 1.0 + RANGE_TOL:
                raise DomainError("g_matrix entries must lie in [-1, 1]")
        if self.linear_coeffs is None and self.objective_grad is None:
            raise DomainError("need objective_grad or linear_coeffs for the objective")
        if self.linear_coeffs is not None:
            self.linear_coeffs = np.asarray(self.linear_coeffs, dtype=float)
            if self.linear_coeffs.shape != (self.m,):
                raise DomainError("linear_coeffs length must match the number of bases")
            if not np.all(np.isfinite(self.linear_coeffs)):
                raise DomainError("linear_coeffs contains non-finite entries")

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
    """Convenience bundle for f(lambda) = coeffs @ lambda."""
    c = np.asarray(coeffs, dtype=float)
    return {
        "objective": lambda lam: float(c @ lam),
        "objective_grad": lambda lam: c,
        "linear_coeffs": c,
    }


def solve_ccp(inst: CCPInstance) -> CCPSolution:
    """Minimize the objective s.t. mean phi(F(lambda, xi_i)) <= alpha - kappa/sqrt(n)."""
    s = inst.surrogate
    kap = kappa(s.lipschitz, inst.m, inst.delta)
    level = alpha_kappa(inst.alpha, kap, inst.n)

    constraint = core.risk_form(inst.g_matrix, s, +1.0)
    if inst.linear_coeffs is not None:
        objective = core.AffineForm(const=0.0, coeffs=inst.linear_coeffs)
    else:
        objective = core.SmoothForm(fn=inst.objective, grad_fn=inst.objective_grad)
    res = core.solve_simplex_program(inst.m, objective, constraint, level)
    lam = res.lam
    return CCPSolution(
        weights=SimplexWeights(lam),
        kappa=kap,
        margin_level=level,
        empirical_constraint_value=phi_risk_from_matrix(inst.g_matrix, lam, s, +1.0),
        objective_value=float(inst.objective(lam)),
        n=inst.n,
        iterations=res.iterations,
        status=res.status,
        gap=res.gap,
    )


def grid_oracle_ccp(inst: CCPInstance, resolution: float) -> CCPSolution:
    """Exhaustive simplex-grid referee for M <= 3 (the affine window's
    candidates for an affine surrogate and linear objective at M = 3);
    ties to the lexicographically smallest weights (first hit in scan order)."""
    if inst.m > 3:
        raise DomainError(f"grid oracle supports M <= 3, got {inst.m}")
    k = grid_steps(resolution)
    s = inst.surrogate
    kap = kappa(s.lipschitz, inst.m, inst.delta)
    level = alpha_kappa(inst.alpha, kap, inst.n)
    chunks = iter_grid_chunks(inst.m, k)
    if s.affine_coefficients is not None:
        # mean phi(G lam) = a + b * mean(G) @ lam, so one dot per point
        a, b = s.affine_coefficients
        g_mean = inst.g_matrix.mean(axis=0)
        def constraint_values(chunk):
            return a + b * (chunk @ g_mean)
        if inst.m == 3 and inst.linear_coeffs is not None and k > 400:
            chunks = [affine_window(a, b * g_mean, level, k)]
    else:
        atoms = empirical_atoms(inst.g_matrix)
        def constraint_values(chunk):
            return atoms.phi_risk_grid(chunk, s, +1.0)
    if inst.linear_coeffs is not None:
        c = inst.linear_coeffs
        def objective_values(chunk):
            return chunk @ c
    else:
        def objective_values(chunk):
            return np.asarray([inst.objective(lam) for lam in chunk])
    [(best_lam, best_val)] = argmin_feasible(chunks, constraint_values,
                                             objective_values, [level])
    if best_lam is None:
        raise Infeasible(f"no grid point satisfies the margin constraint {level}")
    return CCPSolution(
        weights=SimplexWeights(best_lam),
        kappa=kap,
        margin_level=level,
        empirical_constraint_value=phi_risk_from_matrix(inst.g_matrix, best_lam, s, +1.0),
        objective_value=best_val,
        n=inst.n,
        iterations=0,
        status="optimal",
    )


def chance_feasibility_estimate(lam, constraint_bases, fresh_draws,
                                alpha: float) -> dict:
    """Empirical violation rate of F(lambda, xi) > 0 on held-out draws.

    feasible_for_original follows the complement convention: the empirical
    P(F <= 0) must reach 1 - alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    lam = np.asarray(lam, dtype=float)
    G = evaluate_constraint_bases(constraint_bases, fresh_draws)
    if G.shape[1] != lam.size:
        raise DomainError("weight length does not match the number of bases")
    rate = chance_violation_from_matrix(lam, G)
    return {"violation_rate": rate, "feasible_for_original": bool(1.0 - rate >= 1.0 - alpha)}


def chance_violation_from_matrix(lam, G: np.ndarray) -> float:
    """Violation rate when the g_j(xi) columns are already evaluated."""
    F = np.asarray(G, dtype=float) @ np.asarray(lam, dtype=float)
    return float(np.mean(F > 0.0))


def ccp_bound(kappa_value: float, eps: float, alpha: float, n: int,
              phi_at_one: float) -> float:
    """Excess objective bound 4 phi(1) kappa / ((1 - eps) alpha sqrt(n)).

    Warns (and still returns the bound) when n is below the sample-size
    threshold (4 kappa / ((1 - eps) alpha))^2 required by the guarantee.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if kappa_value <= 0 or phi_at_one <= 0:
        raise DomainError("kappa and phi(1) must be positive")
    threshold = (4.0 * kappa_value / ((1.0 - eps) * alpha)) ** 2
    if n < threshold:
        warnings.warn(
            f"n = {n} is below the guarantee threshold {threshold:.1f}; "
            "the returned bound is not certified at this sample size",
            UserWarning, stacklevel=2)
    return 4.0 * phi_at_one * kappa_value / ((1.0 - eps) * alpha * math.sqrt(n))
