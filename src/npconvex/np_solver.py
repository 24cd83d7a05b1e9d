"""The constrained type-II minimization over the simplex.

Pipeline: the concentration margin kappa = 4*sqrt(2)*L*sqrt(log(2M/delta))
strengthens the empirical type-I constraint to alpha_kappa =
alpha - kappa/sqrt(n^-); the solver minimizes the empirical phi-type-II
risk over mixing weights subject to that constraint.  A brute-force grid
oracle (M <= 3, on the first-hit scan every grid referee shares in
_grids) certifies the solver, a feasibility probe witnesses the
small-phi-type-I assumption, and the sample-size/bound report carries
n0 and the two-term excess bound.

Solver routes, chosen in _class_form for solve_np, the feasibility
probe and the harness's type-I minima: when phi is affine on [-1, 1]
(hinge), both risks are affine in the weights and their only data are
the M column means of each class's base-value matrix H, read one base
at a time (O(n + M) memory); the LP is then solved exactly.  Smooth
surrogates (logit, exponential) evaluate phi at every SLSQP iterate,
through BaseDictionary.risk_operator: without opaque bases and with at
most n stump cells (prod(#thresholds + 1) over the axes), on one
weighted margin per occupied cell, else on all n margins.  Its products
never form a stump's column and cost O(rows d + M) for stumps on d
axes.  The oracle never uses the solver's forms: risk.sample_risk_grid
scores its grid points on each class's column means for an affine
surrogate, where at M = 2 or 3 it scans only the candidates of
_grids.affine_window, and on each class's merged atoms
(risk.empirical_atoms) for a smooth one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _solver_core as core
from ._grids import affine_window, argmin_feasible, grid_steps, iter_grid_chunks
from .errors import (DomainError, EmptySample, Infeasible, OneClassEmpty,
                     SampleTooSmall, UnknownLabel, check_count, check_real)
from .hypothesis import BaseDictionary, SimplexWeights
from .risk import Sample, _require_nonempty, phi_risk_from_matrix, sample_risk_grid
from .surrogate import Surrogate


@dataclass(frozen=True)
class NPConfig:
    alpha: float
    delta: float
    surrogate: Surrogate

    def __post_init__(self):
        check_real(self.alpha, "alpha", 0, 1)
        check_real(self.delta, "delta", 0, 1)


@dataclass
class NPSolution:
    weights: SimplexWeights
    kappa: float
    alpha_kappa: float
    r_minus_phi: float
    r_plus_phi: float
    n_minus: int
    n_plus: int
    iterations: int
    status: str
    #: certified optimality gap of r_plus_phi; None for the grid oracle
    gap: Optional[float] = None

    def to_json(self) -> dict:
        return {
            "weights": self.weights.to_json(),
            "kappa": self.kappa,
            "alpha_kappa": self.alpha_kappa,
            "r_minus_phi": self.r_minus_phi,
            "r_plus_phi": self.r_plus_phi,
            "n_minus": self.n_minus,
            "n_plus": self.n_plus,
            "iterations": self.iterations,
            "status": self.status,
            "gap": self.gap,
        }


@dataclass
class BoundReport:
    n0: int
    thm42_bound: float


def kappa(L: float, M: int, delta: float) -> float:
    """kappa = 4*sqrt(2) * L * sqrt(log(2M/delta)), natural log, if finite."""
    check_real(L, "L", 0, math.inf)
    check_count(M, "M")
    check_real(delta, "delta", 0, 1)
    return check_real(4.0 * math.sqrt(2.0) * L * math.sqrt(math.log(2.0 * M / delta)),
                      "kappa", 0, math.inf)


def alpha_kappa(alpha: float, kappa_value: float, n_minus: int) -> float:
    """alpha - kappa/sqrt(n^-); SampleTooSmall when that is not positive,
    DomainError for a non-finite alpha or kappa."""
    check_count(n_minus, "n_minus")
    check_real(kappa_value, "kappa", 0, math.inf, "[)")
    check_real(alpha, "alpha")
    out = alpha - kappa_value / math.sqrt(n_minus)
    if out <= 0.0:
        raise SampleTooSmall(
            f"alpha - kappa/sqrt(n^-) = {out} <= 0 at n^- = {n_minus}; "
            "the strengthened constraint level is vacuous")
    return out


def _per_class(sample: Sample, evaluate):
    """evaluate(X, sign) on the negatives (+1) and positives (-1)."""
    if sample.n_minus < 1 or sample.n_plus < 1:
        raise EmptySample("both classes must be nonempty")
    return evaluate(sample.negatives, +1.0), evaluate(sample.positives, -1.0)


def _class_form(X, dictionary: BaseDictionary, s: Surrogate, sign: float) -> core.Form:
    """lam -> mean of phi(sign * h_lam(x)) over the rows of X, as a Form.

    An affine phi needs only the column means of H (O(n + M) memory); a
    smooth phi takes its value and gradient through the weighted rows of
    dictionary.risk_operator(X): its occupied stump cells when they number
    at most n, else O(n d + M) memory for stumps on d axes and constants,
    plus an (n, M') block for the M' bases of other kinds.
    """
    if s.affine_coefficients is not None:
        return core.affine_risk_form(dictionary.column_means(X), s, sign)
    op, weights = dictionary.risk_operator(X)
    return core.risk_form(op, s, sign, weights=weights)


def _min_type1(negatives, dictionary: BaseDictionary, cfg: NPConfig):
    """(lam, value): the unconstrained minimum of the empirical phi-type-I risk."""
    form = _class_form(negatives, dictionary, cfg.surrogate, +1.0)
    res = core.minimize_simplex(dictionary.m, form)
    return res.lam, res.objective_value


def solve_np(sample: Sample, dictionary: BaseDictionary, cfg: NPConfig) -> NPSolution:
    """Minimize empirical phi-type-II risk s.t. phi-type-I risk <= alpha_kappa."""
    return _solve_np(sample, dictionary, cfg, 1.0)


def _solve_np(sample: Sample, dictionary: BaseDictionary, cfg: NPConfig,
              kappa_scale: float) -> NPSolution:
    """solve_np with the margin kappa scaled by kappa_scale; 0 ablates it."""
    s = cfg.surrogate
    constraint, objective = _per_class(
        sample, lambda X, sign: _class_form(X, dictionary, s, sign))
    kap = kappa(s.lipschitz, dictionary.m, cfg.delta)
    level = alpha_kappa(cfg.alpha, kappa_scale * kap, sample.n_minus)

    res = core.solve_simplex_program(dictionary.m, objective, constraint, level)
    return NPSolution(
        weights=SimplexWeights(res.lam),
        kappa=kap,
        alpha_kappa=level,
        r_minus_phi=res.constraint_value,
        r_plus_phi=res.objective_value,
        n_minus=sample.n_minus,
        n_plus=sample.n_plus,
        iterations=res.iterations,
        status=res.status,
        gap=res.gap,
    )


def _oracle_scan(H_minus, H_plus, s, level, lam_chunks):
    """(lam, value) of the best feasible grid point, each class's risk
    scored by risk.sample_risk_grid."""
    return argmin_feasible(lam_chunks, sample_risk_grid(H_minus, s, +1.0),
                           sample_risk_grid(H_plus, s, -1.0), [level])[0]


def grid_oracle_np(sample: Sample, dictionary: BaseDictionary, cfg: NPConfig,
                   resolution: float) -> NPSolution:
    """Exhaustive grid search over the simplex; the solver's referee.

    Independent of the production solver: risks are evaluated directly on
    every grid point (or the affine window's candidates for affine
    surrogates at M = 2 or 3), the best feasible point wins, and equal
    scored values go to the lexicographically smallest weight vector.
    Points tied in exact arithmetic but separated by rounding go to the
    lower scored value, and on the window a grid row along which the type-II
    risk is flat offers only the points around its first feasible one.
    Both risks are recomputed at the winning weights, so each is a
    function of lambda alone.
    """
    if dictionary.m > 3:
        raise DomainError(f"grid oracle supports M <= 3, got {dictionary.m}")
    k = grid_steps(resolution)
    H_minus, H_plus = _per_class(sample, lambda X, sign: dictionary.evaluate_matrix(X))
    s = cfg.surrogate
    kap = kappa(s.lipschitz, dictionary.m, cfg.delta)
    level = alpha_kappa(cfg.alpha, kap, sample.n_minus)

    if dictionary.m in (2, 3) and s.affine_coefficients is not None:
        a, b = s.affine_coefficients
        chunks = [affine_window(a, b * H_minus.mean(axis=0), level, k,
                                -b * H_plus.mean(axis=0))]
    else:
        chunks = iter_grid_chunks(dictionary.m, k)
    best_lam, _ = _oracle_scan(H_minus, H_plus, s, level, chunks)
    if best_lam is None:
        raise Infeasible(f"no grid point satisfies r_minus_phi <= {level}")
    return NPSolution(
        weights=SimplexWeights(best_lam),
        kappa=kap,
        alpha_kappa=level,
        r_minus_phi=phi_risk_from_matrix(H_minus, best_lam, s, +1.0),
        r_plus_phi=phi_risk_from_matrix(H_plus, best_lam, s, -1.0),
        n_minus=sample.n_minus,
        n_plus=sample.n_plus,
        iterations=0,
        status="optimal",
    )


def feasibility_probe(negatives, dictionary: BaseDictionary, cfg: NPConfig,
                      eps: float) -> dict:
    """Check whether some mixture has empirical phi-type-I risk below
    eps*alpha - kappa/sqrt(n^-), and report the unconstrained minimum."""
    check_real(eps, "eps", 0, 1)
    neg = _require_nonempty(negatives, "negative")
    lam, min_val = _min_type1(neg, dictionary, cfg)
    kap = kappa(cfg.surrogate.lipschitz, dictionary.m, cfg.delta)
    threshold = alpha_kappa(eps * cfg.alpha, kap, neg.shape[0])
    return {
        "feasible": bool(min_val <= threshold),
        "min_r_minus_phi": float(min_val),
        "threshold": float(threshold),
        "argmin": SimplexWeights(lam),
    }


def eps_bar_upper(min_r_minus_phi: float, kappa_value: float, n_minus: int,
                  alpha: float) -> float:
    """High-probability upper estimate (min R-hat + kappa/sqrt(n^-))/alpha."""
    check_real(min_r_minus_phi, "min_r_minus_phi")
    check_real(kappa_value, "kappa", 0, math.inf, "[)")
    check_real(alpha, "alpha", 0, 1)
    check_count(n_minus, "n_minus")
    return check_real((min_r_minus_phi + kappa_value / math.sqrt(n_minus)) / alpha,
                      "eps_bar")


def _excess_denominator(kappa_value: float, eps_bar: float, alpha: float,
                        phi_at_one: float) -> float:
    """(1 - eps_bar) alpha, after the checks the three excess bounds share."""
    check_real(eps_bar, "eps_bar", 0, 1, "[)")
    check_real(alpha, "alpha", 0, 1)
    finite = f"kappa and phi(1) must be finite, got {kappa_value} and {phi_at_one}"
    for v in (kappa_value, phi_at_one):
        check_real(v, "kappa", message=finite)
    for v in (kappa_value, phi_at_one):
        check_real(v, "kappa", 0, math.inf, message="kappa and phi(1) must be positive")
    return (1.0 - eps_bar) * alpha


def n0_and_bound(kappa_value: float, eps_bar: float, alpha: float, n_minus: int,
                 n_plus: int, phi_at_one: float) -> BoundReport:
    """Sample-size threshold and the two-term excess type-II bound.

    n0 = ceil((4 kappa / ((1 - eps_bar) alpha))^2); the bound is
    4 phi(1) kappa / ((1-eps_bar) alpha sqrt(n^-)) + 2 kappa / sqrt(n^+).
    """
    denom = _excess_denominator(kappa_value, eps_bar, alpha, phi_at_one)
    check_count(n_minus, "n_minus")
    check_count(n_plus, "n_plus")
    root = 4.0 * kappa_value / denom
    check_real(root * root, "n0")  # root ** 2 raises OverflowError where this is inf
    n0 = int(math.ceil(root ** 2))
    bound = (4.0 * phi_at_one * kappa_value / (denom * math.sqrt(n_minus))
             + 2.0 * kappa_value / math.sqrt(n_plus))
    return BoundReport(max(n0, 1), check_real(bound, "bound"))


def pooled_bound(kappa_value: float, eps_bar: float, alpha: float, n: int, p: float,
                 phi_at_one: float) -> float:
    """sqrt(2)-inflated excess bound for a pooled sample of size n with
    P(Y=+1) = p: the expected class sizes n(1-p), np replace n^-, n^+."""
    check_real(p, "p", 0, 1)
    denom = _excess_denominator(kappa_value, eps_bar, alpha, phi_at_one)
    check_count(n, "n")
    root2 = math.sqrt(2.0)
    return check_real(
        4.0 * root2 * phi_at_one * kappa_value / (denom * math.sqrt(n * (1.0 - p)))
        + 2.0 * root2 * kappa_value / math.sqrt(n * p), "bound")


def split_pooled(pooled) -> Sample:
    """Partition a pooled labeled sample, the pair (X, y) of a feature
    matrix (or 1-D feature vector) and its labels in {-1, +1}, into the
    two class samples.  y must be 1-D with one label per row of X."""
    if not (isinstance(pooled, tuple) and len(pooled) == 2):
        raise DomainError("split_pooled needs the pair (X, y), "
                          f"got {type(pooled).__name__}")
    X = np.asarray(pooled[0], dtype=float)
    y = np.asarray(pooled[1])
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if y.shape != X.shape[:1]:
        raise DomainError(f"split_pooled needs one label per row: X has shape "
                          f"{X.shape}, y has shape {y.shape}")
    if X.shape[0] == 0:
        raise EmptySample("pooled sample is empty")
    y = y.astype(float)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        bad = y[~np.isin(y, (-1.0, 1.0))][0]
        raise UnknownLabel(f"labels must be -1 or +1, got {bad}")
    neg = X[y == -1.0]
    pos = X[y == 1.0]
    if neg.shape[0] == 0 or pos.shape[0] == 0:
        raise OneClassEmpty("pooled sample contains a single class")
    return Sample(negatives=neg, positives=pos)
