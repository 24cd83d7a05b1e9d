"""Exact and Monte Carlo verification of the probabilistic building blocks.

Four families of checks, each against an independent oracle:

* two binomial lower-tail lemmas, verified by exact enumeration of the
  binomial distribution in log space with compensated summation;
* the max-over-vertices identity for the Rademacher average of simplex
  mixtures, verified on simplex grids against fresh sign draws;
* the sup-deviation inequality sup |(P_n - P)(phi o h_lambda)| <=
  kappa/sqrt(n), verified by repeated sampling with exact population
  terms where the scenario admits them;
* the gamma function (optimal constrained type-II risk) and its
  difference inequality, verified on grid-computed curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from ._grids import grid_count, grid_points, grid_steps, iter_grid_chunks
from ._seeding import rng_for
from .errors import DomainError, HypothesisFailed
from .hypothesis import BaseDictionary
from .np_solver import kappa
from .risk import (Sample, WeightedAtoms, _as_matrix, empirical_atoms,
                   phi_risks_from_matrix)
from .surrogate import Surrogate

HOLD_TOL = 1e-12
#: exact summation is kept effectively lossless up to this size
MAX_EXACT_N = 100_000
#: absorbs float fuzz in thresholds like n*q that are mathematically integral
THRESHOLD_SNAP = 1e-9


@dataclass
class LemmaCheckResult:
    parameters: dict
    exact_value: float
    bound_value: float
    holds: bool
    worst_slack: float

    def to_json(self) -> dict:
        return {
            "parameters": self.parameters,
            "exact_value": self.exact_value,
            "bound_value": self.bound_value,
            "holds": self.holds,
            "worst_slack": self.worst_slack,
        }


def binomial_tail_exact(n: int, q: float, t: float) -> float:
    """P(Bin(n, q) >= t) by exact term-by-term summation.

    The largest term in the tail is computed exactly (integer binomial
    coefficient times exact rational powers of q, rounded once to float);
    the remaining terms follow by the ratio recurrence and are added with
    compensated summation.  Relative error stays below about 1e-13 for
    every n up to the cap.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    if n > MAX_EXACT_N:
        raise DomainError(f"exact summation capped at n = {MAX_EXACT_N}, got {n}")
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    if t <= 0.0:
        return 1.0
    k0 = math.ceil(t - THRESHOLD_SNAP)
    if k0 > n:
        return 0.0
    if k0 <= 0:
        return 1.0
    n = int(n)
    mode = min(max(k0, int((n + 1) * q)), n)
    q_exact = Fraction(q)
    anchor = float(math.comb(n, mode) * q_exact ** mode
                   * (1 - q_exact) ** (n - mode))
    ratio_up = q / (1.0 - q)
    terms = [anchor]
    tk = anchor
    for k in range(mode, n):
        tk *= (n - k) / (k + 1.0) * ratio_up
        if tk == 0.0:
            break
        terms.append(tk)
    tk = anchor
    for k in range(mode, k0, -1):
        tk *= k / ((n - k + 1.0) * ratio_up)
        if tk == 0.0:
            break
        terms.append(tk)
    return min(1.0, math.fsum(terms))


def check_lemma_bin(n: int, q: float, t: float) -> LemmaCheckResult:
    """P(N >= t) >= 1 - exp(-n q^2 / 2) for 0 < t <= nq/2."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if not 0.0 < t <= n * q / 2.0 + THRESHOLD_SNAP:
        raise DomainError(f"need 0 < t <= nq/2 = {n * q / 2.0}, got t = {t}")
    exact = binomial_tail_exact(n, q, t)
    bound = 1.0 - math.exp(-n * q * q / 2.0)
    return LemmaCheckResult(
        parameters={"n": n, "q": q, "t": t},
        exact_value=exact,
        bound_value=bound,
        holds=bool(exact >= bound - HOLD_TOL),
        worst_slack=exact - bound,
    )


def check_lemma_bin2(n: int, q: float) -> LemmaCheckResult:
    """P(N >= nq) >= min(q, 1/4) for 0 < q <= 1/2."""
    if not 0.0 < q <= 0.5:
        raise DomainError(f"q must lie in (0, 1/2], got {q}")
    exact = binomial_tail_exact(n, q, n * q)
    bound = min(q, 0.25)
    return LemmaCheckResult(
        parameters={"n": n, "q": q},
        exact_value=exact,
        bound_value=bound,
        holds=bool(exact >= bound - HOLD_TOL),
        worst_slack=exact - bound,
    )


def sweep_binomial_lemmas(n_max: int = 200, q_points: int = 50,
                          t_points: int = 4) -> dict:
    """Exhaustive lemma checks over n in [1, n_max] and a q grid in (0, 1/2].

    For every (n, q) the exceed-mean lemma is checked once and the tail
    lemma on t_points values spread over (0, nq/2].  Returns worst slacks
    and the (empty, if all good) list of violations.
    """
    qs = np.arange(1, q_points + 1) / (2.0 * q_points)
    violations = []
    worst_bin = None
    worst_bin2 = None
    checks = 0
    for n in range(1, n_max + 1):
        for q in qs:
            res2 = check_lemma_bin2(n, float(q))
            checks += 1
            if not res2.holds:
                violations.append(res2.to_json())
            if worst_bin2 is None or res2.worst_slack < worst_bin2.worst_slack:
                worst_bin2 = res2
            half = n * q / 2.0
            for i in range(1, t_points + 1):
                t = half * i / t_points
                res = check_lemma_bin(n, float(q), float(t))
                checks += 1
                if not res.holds:
                    violations.append(res.to_json())
                if worst_bin is None or res.worst_slack < worst_bin.worst_slack:
                    worst_bin = res
    return {
        "checks": checks,
        "violations": violations,
        "all_hold": not violations,
        "worst_bin": worst_bin.to_json(),
        "worst_bin2": worst_bin2.to_json(),
    }


def check_rademacher_vertex_identity(dictionary: BaseDictionary, data,
                                     seed: int, trials: int,
                                     resolution: float = 0.02) -> bool:
    """sup over the simplex of |R_n(h_lambda)| equals the vertex maximum.

    R_n(h_lambda) = (1/n) sum_i sigma_i h_lambda(x_i) is linear in the
    weights, so its absolute value peaks at a vertex.  Each trial draws
    fresh Rademacher signs and compares the grid supremum to
    max_j |R_n(h_j)|; the grid may exceed the vertex value by at most
    the grid slack 2 * resolution * max_j ||h_j||_inf, and must attain
    it exactly at a vertex.
    """
    if dictionary.m > 4:
        raise DomainError(f"identity check supports M <= 4, got {dictionary.m}")
    H = dictionary.evaluate_matrix(_as_matrix(data))
    n = H.shape[0]
    grid = grid_points(dictionary.m, grid_steps(resolution))
    slack = 2.0 * resolution * float(np.max(np.abs(H), initial=0.0))
    for trial in range(trials):
        rng = rng_for(seed, "bounds.rademacher", trial)
        sigma = rng.integers(0, 2, size=n) * 2 - 1
        v = (sigma @ H) / n           # v_j = R_n(h_j)
        vertex_max = float(np.max(np.abs(v)))
        grid_max = float(np.max(np.abs(grid @ v)))
        if grid_max > vertex_max + slack + HOLD_TOL:
            return False
        if grid_max < vertex_max - HOLD_TOL:
            return False
    return True


def _population_atoms(scenario, dictionary, side: str) -> Optional[WeightedAtoms]:
    fn = getattr(scenario, "population_atoms", None)
    if fn is None:
        return None
    try:
        return fn(dictionary, side)
    except DomainError:
        return None


def check_sup_deviation(scenario, dictionary: BaseDictionary, s: Surrogate,
                        n: int, delta: float, trials: int, seed: int,
                        resolution: float = 1e-3, mc_reference: int = 10 ** 6) -> dict:
    """Empirical violation rate of sup |(P_n - P)(phi o h_lambda)| > kappa/sqrt(n).

    Samples are drawn from the scenario's negative class-conditional.  The
    population term comes from exact interval atoms when the scenario and
    dictionary admit them, otherwise from the merged atoms of one large
    Monte Carlo reference sample (empirical_atoms).  The supremum over the
    simplex is taken on a grid (M <= 3).
    """
    if dictionary.m > 3:
        raise DomainError(f"sup check supports M <= 3, got {dictionary.m}")
    if trials < 1:
        raise DomainError("need at least one trial")
    kap = kappa(s.lipschitz, dictionary.m, delta)
    threshold = kap / math.sqrt(n)
    grid = grid_points(dictionary.m, grid_steps(resolution))

    atoms = _population_atoms(scenario, dictionary, "minus")
    if atoms is None:
        rng_ref = rng_for(seed, "bounds.supdev.reference")
        X_ref = np.asarray(scenario.draw_negatives(rng_ref, mc_reference), dtype=float)
        atoms = empirical_atoms(dictionary.evaluate_matrix(X_ref))
    pop = atoms.phi_risk_grid(grid, s, +1.0)

    violations = 0
    worst = 0.0
    for trial in range(trials):
        rng = rng_for(seed, "bounds.supdev", trial)
        X = np.asarray(scenario.draw_negatives(rng, n), dtype=float)
        H = dictionary.evaluate_matrix(X)
        emp = phi_risks_from_matrix(H, grid, s, +1.0)
        sup = float(np.max(np.abs(emp - pop)))
        worst = max(worst, sup)
        if sup > threshold:
            violations += 1
    return {
        "violation_rate": violations / trials,
        "threshold": threshold,
        "max_sup": worst,
        "trials": trials,
    }


def _atoms_pair(source, dictionary: BaseDictionary) -> Tuple[WeightedAtoms, WeightedAtoms]:
    if isinstance(source, Sample):
        return (empirical_atoms(dictionary.evaluate_matrix(source.negatives)),
                empirical_atoms(dictionary.evaluate_matrix(source.positives)))
    if isinstance(source, tuple) and len(source) == 2 \
            and all(isinstance(a, WeightedAtoms) for a in source):
        return source
    fn = getattr(source, "population_atoms", None)
    if fn is not None:
        return fn(dictionary, "minus"), fn(dictionary, "plus")
    raise DomainError(f"cannot derive risk atoms from {source!r}")


def gamma_curve(source, dictionary: BaseDictionary, s: Surrogate,
                x_grid: Sequence[float], resolution: float = 1e-3) -> list:
    """gamma(x) = minimal phi-type-II risk subject to phi-type-I <= x.

    Minimization over a simplex grid (M <= 4); infeasible levels map to
    +inf.  The curve is non-increasing by construction and convex up to
    grid slack.  `source` may be a Sample (empirical measure), a pair of
    WeightedAtoms, or a scenario with exact population atoms.  Each grid
    chunk is scored once for all levels; scans of over 2e9 grid points
    times atoms are refused.  The harness's population gamma is this.
    """
    if dictionary.m > 4:
        raise DomainError(f"gamma oracle supports M <= 4, got {dictionary.m}")
    minus, plus = _atoms_pair(source, dictionary)
    k = grid_steps(resolution)
    cost = grid_count(dictionary.m, k) * max(minus.H.shape[0], plus.H.shape[0])
    if cost > 2 * 10 ** 9:
        raise DomainError("gamma oracle needs a coarser resolution or fewer atoms "
                          f"(grid points x atoms = {cost:.1e})")
    best = [math.inf] * len(x_grid)
    for grid in iter_grid_chunks(dictionary.m, k):
        r_minus = minus.phi_risk_grid(grid, s, +1.0)
        r_plus = plus.phi_risk_grid(grid, s, -1.0)
        for i, x in enumerate(x_grid):
            best[i] = min(best[i], float(np.min(r_plus[r_minus <= x], initial=math.inf)))
    return [(float(x), val) for x, val in zip(x_grid, best)]


def _curve_lookup(curve, x: float) -> float:
    for cx, val in curve:
        if abs(cx - x) <= 1e-9:
            return val
    raise DomainError(f"gamma curve does not contain x = {x}")


def check_prop42(curve, alpha: float, nu0: float, nu_grid: Sequence[float],
                 phi_at_one: float, slack: float = 0.0) -> LemmaCheckResult:
    """gamma(alpha - nu) - gamma(alpha) <= phi(1) * nu / (nu0 - nu) on (0, nu0).

    The curve must contain alpha, alpha - nu0, and every alpha - nu;
    gamma(alpha - nu0) = +inf fails the hypothesis of the inequality.
    """
    if nu0 <= 0:
        raise DomainError(f"nu0 must be positive, got {nu0}")
    if phi_at_one <= 0:
        raise DomainError("phi(1) must be positive")
    g_alpha = _curve_lookup(curve, alpha)
    g_nu0 = _curve_lookup(curve, alpha - nu0)
    if not math.isfinite(g_nu0):
        raise HypothesisFailed(
            f"gamma({alpha - nu0}) is infinite; the nu0 hypothesis fails")
    worst = -math.inf
    worst_pair = (math.nan, math.nan)
    holds = True
    for nu in nu_grid:
        if not 0.0 < nu < nu0:
            raise DomainError(f"nu values must lie in (0, nu0), got {nu}")
        lhs = _curve_lookup(curve, alpha - nu) - g_alpha
        rhs = phi_at_one * nu / (nu0 - nu)
        gap = lhs - rhs
        if gap > worst:
            worst = gap
            worst_pair = (lhs, rhs)
        if lhs > rhs + slack + HOLD_TOL:
            holds = False
    return LemmaCheckResult(
        parameters={"alpha": alpha, "nu0": nu0, "nu_count": len(list(nu_grid)),
                    "slack": slack},
        exact_value=worst_pair[0],
        bound_value=worst_pair[1],
        holds=holds,
        worst_slack=-worst,  # positive when the inequality holds with room
    )
