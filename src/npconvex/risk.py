"""Empirical and exact risk functionals.

Type-I quantities condition on the negative class (false alarms), type-II
on the positive class (misses).  The phi versions replace the 0/1
indicator by a convex surrogate and dominate it pointwise:

    R^-(h)     = P^-(h(X) >= 0)          R^-_phi(h) = E^- phi(h(X))
    R^+(h)     = P^+(h(X) <= 0)          R^+_phi(h) = E^+ phi(-h(X))

Empirical counterparts average over the respective samples.  Closed
forms are provided for the two-classifier uniform construction used by
the counterexample experiment, and Monte Carlo estimation covers
scenarios with a generative law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._seeding import rng_for
from .errors import DomainError, EmptySample, UnknownScenario, check_count, check_real
from .hypothesis import CombinedClassifier
from .surrogate import Surrogate


@dataclass(frozen=True)
class Sample:
    """Two i.i.d. samples, one per class."""

    negatives: np.ndarray
    positives: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "negatives", _as_matrix(self.negatives))
        object.__setattr__(self, "positives", _as_matrix(self.positives))

    @property
    def n_minus(self) -> int:
        return self.negatives.shape[0]

    @property
    def n_plus(self) -> int:
        return self.positives.shape[0]


def _as_matrix(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    return out


def _require_nonempty(arr: np.ndarray, label: str) -> np.ndarray:
    arr = _as_matrix(arr)
    if arr.shape[0] == 0:
        raise EmptySample(f"{label} sample is empty")
    return arr


@dataclass(frozen=True)
class RiskReport:
    r_minus_01: float
    r_plus_01: float
    r_minus_phi: float
    r_plus_phi: float

    def to_json(self) -> dict:
        return {
            "r_minus_01": self.r_minus_01,
            "r_plus_01": self.r_plus_01,
            "r_minus_phi": self.r_minus_phi,
            "r_plus_phi": self.r_plus_phi,
        }


def empirical_phi_type1(h: CombinedClassifier, s: Surrogate, negatives) -> float:
    """(1/n^-) sum phi(h(X_i^-))."""
    X = _require_nonempty(negatives, "negative")
    return float(np.mean(s.eval(h.evaluate_batch(X))))


def empirical_phi_type2(h: CombinedClassifier, s: Surrogate, positives) -> float:
    """(1/n^+) sum phi(-h(X_i^+))."""
    X = _require_nonempty(positives, "positive")
    return float(np.mean(s.eval(-h.evaluate_batch(X))))


def empirical_01_type1(h: CombinedClassifier, negatives) -> float:
    """Fraction of negatives with h(x) >= 0 (boundary included)."""
    X = _require_nonempty(negatives, "negative")
    return float(np.mean(h.evaluate_batch(X) >= 0.0))


def empirical_01_type2(h: CombinedClassifier, positives) -> float:
    """Fraction of positives with h(x) <= 0 (boundary included)."""
    X = _require_nonempty(positives, "positive")
    return float(np.mean(h.evaluate_batch(X) <= 0.0))


def risk_report(h: CombinedClassifier, s: Surrogate, sample: Sample) -> RiskReport:
    return RiskReport(
        r_minus_01=empirical_01_type1(h, sample.negatives),
        r_plus_01=empirical_01_type2(h, sample.positives),
        r_minus_phi=empirical_phi_type1(h, s, sample.negatives),
        r_plus_phi=empirical_phi_type2(h, s, sample.positives),
    )


def exact_risks_prop31(lam: float, alpha: float) -> Tuple[float, float]:
    """True 0/1 risks of h_lambda = lam*h1 + (1-lam)*h2 for the uniform pair.

    Here h1 = -1 everywhere, h2(x) = 1(x <= alpha) - 1(x > alpha), and both
    class-conditionals are uniform on [0, 1].  Then h_lambda(x) =
    (1 - 2*lam) 1(x <= alpha) - 1(x > alpha), so

        R^-(h_lambda) = alpha * 1(lam <= 1/2)
        R^+(h_lambda) = (1 - alpha) * 1(lam < 1/2) + 1(lam >= 1/2)
    """
    check_real(alpha, "alpha", 0, 1)
    check_real(lam, "lambda", 0, 1, "[]")
    r_minus = alpha if lam <= 0.5 else 0.0
    r_plus = (1.0 - alpha) if lam < 0.5 else 1.0
    return r_minus, r_plus


_WHICH = ("type1_01", "type2_01", "type1_phi", "type2_phi")


def monte_carlo_risk(h: CombinedClassifier, s: Surrogate, scenario, which: str,
                     m: int, seed: int) -> Tuple[float, float]:
    """Monte Carlo estimate of a true risk, with a 95% normal half-width.

    `scenario` must expose draw_negatives(rng, m) / draw_positives(rng, m);
    scenarios without a generative law raise UnknownScenario.
    """
    if which not in _WHICH:
        raise DomainError(f"unknown risk selector {which!r}; expected one of {_WHICH}")
    check_count(m, "m", 100)
    if not (hasattr(scenario, "draw_negatives") and hasattr(scenario, "draw_positives")):
        raise UnknownScenario(f"scenario {scenario!r} cannot be sampled from")
    rng = rng_for(seed, "risk.monte_carlo")
    if which.startswith("type1"):
        X = scenario.draw_negatives(rng, m)
        margins = h.evaluate_batch(_as_matrix(X))
        values = s.eval(margins) if which.endswith("phi") else (margins >= 0.0).astype(float)
    else:
        X = scenario.draw_positives(rng, m)
        margins = h.evaluate_batch(_as_matrix(X))
        values = s.eval(-margins) if which.endswith("phi") else (margins <= 0.0).astype(float)
    return _mc_estimate(values)


def _mc_estimate(values: np.ndarray,
                 counts: np.ndarray | None = None) -> Tuple[float, float]:
    """Mean of i.i.d. Monte Carlo values and its 95% normal half-width;
    counts[k] draws took values[k], one draw each when counts is None."""
    if counts is None:
        sd = float(np.std(values, ddof=1))
        return float(np.mean(values)), 1.96 * sd / math.sqrt(values.size)
    n = float(counts.sum())
    mean = float(counts @ values) / n
    var = float(counts @ (values - mean) ** 2) / (n - 1.0)
    return mean, 1.96 * math.sqrt(var / n)


def phi_risk_from_matrix(H: np.ndarray, lam: np.ndarray, s: Surrogate, sign: float,
                         weights: np.ndarray | None = None) -> float:
    """Weighted mean of phi(sign * H @ lam); uniform weights when None.

    One mixture's risk for the reports and closed-form population
    computations (rows are atoms, weights their probabilities); grids go
    through sample_risk_grid or WeightedAtoms.phi_risk_grid, and the
    solver's smooth forms call phi_risk_from_margins on their memoised
    margins.
    """
    return phi_risk_from_margins(sign * (H @ lam), s, weights)


def phi_risk_from_margins(margins: np.ndarray, s: Surrogate,
                          weights: np.ndarray | None = None) -> float:
    """Weighted mean of phi(margins); uniform weights when None."""
    vals = s.eval(margins)
    if weights is None:
        return float(np.mean(vals))
    return float(np.dot(weights, vals))


# (atom, point) pairs per run of WeightedAtoms.phi_risk_grid: 128 KB
# temporaries.  Unmerged rows (a CCP g_matrix, a non-stump dictionary)
# scored up to twice as slowly in runs of 1 << 16 pairs or more
_ATOM_BLOCK_PAIRS = 1 << 14


@dataclass(frozen=True)
class WeightedAtoms:
    """A measure carried on finitely many base-value atoms.

    Row k of H holds (h_1, ..., h_M) on atom k; weights are the atom
    probabilities.  An empirical measure records its n draws (weights are
    counts over n); an exact law has n = None.  Piecewise-constant
    dictionaries under absolutely continuous class-conditionals reduce to
    a handful of interval atoms, which makes population risks exact.
    """

    H: np.ndarray
    weights: np.ndarray
    n: Optional[int] = None

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if H.ndim != 2 or w.ndim != 1 or H.shape[0] != w.size or w.size == 0:
            raise DomainError("atoms need a (K, M) matrix and K weights")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(w))):
            raise DomainError("atoms and their weights must be finite")
        if np.any(w < -1e-12) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise DomainError("atom weights must be a probability vector")
        if self.n is not None:
            check_count(self.n, "n")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "weights", w)

    def phi_risk(self, lam: np.ndarray, s: Surrogate, sign: float) -> float:
        return phi_risk_from_matrix(self.H, lam, s, sign, self.weights)

    def estimate(self, lam: np.ndarray, s: Surrogate, sign: float) -> Tuple[float, float]:
        """(phi-risk of lam, 95% Monte Carlo half-width); 0 on an exact law."""
        if self.n is None:
            return self.phi_risk(lam, s, sign), 0.0
        return _mc_estimate(s.eval(sign * (self.H @ lam)), np.rint(self.weights * self.n))

    def phi_risk_grid(self, grid: np.ndarray, s: Surrogate, sign: float) -> np.ndarray:
        """Risk at every grid row: weights @ phi(sign * H @ grid.T).

        The one grid-risk kernel of every grid referee, scored in runs of
        _ATOM_BLOCK_PAIRS // K grid points (at least one) for K atoms, so
        memory stays flat for any number of atoms.
        """
        run = max(1, _ATOM_BLOCK_PAIRS // self.H.shape[0])
        # the sign goes on the small grid run: negation is exact either way
        return np.concatenate([self.weights @ s.eval(self.H @ (sign * grid[i:i + run]).T)
                               for i in range(0, max(1, grid.shape[0]), run)])


def empirical_atoms(H: np.ndarray) -> WeightedAtoms:
    """The rows of H as atoms: identical rows merge into one of weight
    count/n, so a stump dictionary's draws make only a few atoms.

    Atoms come in the rows' lexicographic order.  When every entry is +-1
    and M <= 63 (stumps, and constants of value +-1), row i is keyed by
    the integer whose bit M - 1 - j is [H_ij > 0], which sorts as the rows
    do; one integer np.unique merges them, and each atom is read back off
    its key's bits.  Any other H is sorted row by row.
    """
    H = _require_nonempty(H, "empirical")
    n, m = H.shape
    if m <= 63 and np.all(np.abs(H) == 1.0):
        bits = np.arange(m - 1, -1, -1, dtype=np.int64)
        keys, counts = np.unique((H > 0) @ (1 << bits), return_counts=True)
        return WeightedAtoms(H=np.where(keys[:, None] >> bits & 1, 1.0, -1.0),
                             weights=counts / n, n=n)
    # rows in np.unique(axis=0) order, at a tenth of its cost
    H = H[np.lexsort(H.T[::-1])]
    starts = np.flatnonzero(np.r_[True, np.any(H[1:] != H[:-1], axis=1)])
    return WeightedAtoms(H=H[starts], weights=np.diff(starts, append=n) / n, n=n)


def sample_risk_grid(H: np.ndarray, s: Surrogate, sign: float):
    """grid -> mean of phi(sign * H @ lam) over the rows of H at every grid
    row, the grid referees' scorer of a sample's risk.  For an affine phi
    = a + b z it is a + grid @ ((b sign) mean(H)), one dot per point; any
    other phi is scored on the merged atoms of H (empirical_atoms)."""
    if s.affine_coefficients is None:
        atoms = empirical_atoms(H)
        return lambda grid: atoms.phi_risk_grid(grid, s, sign)
    a, b = s.affine_coefficients
    coeffs = (b * sign) * H.mean(axis=0)
    return lambda grid: a + grid @ coeffs
