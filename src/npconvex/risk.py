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
from .errors import DomainError, EmptySample, UnknownScenario
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
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
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
    if m < 100:
        raise DomainError(f"need at least 100 draws, got {m}")
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

    Shared by the grid oracles, the reports, and closed-form population
    computations (where rows are atoms and weights their probabilities);
    the solver's smooth forms call phi_risk_from_margins on their
    memoised margins.
    """
    return phi_risk_from_margins(sign * (H @ lam), s, weights)


def phi_risk_from_margins(margins: np.ndarray, s: Surrogate,
                          weights: np.ndarray | None = None) -> float:
    """Weighted mean of phi(margins); uniform weights when None."""
    vals = s.eval(margins)
    if weights is None:
        return float(np.mean(vals))
    return float(np.dot(weights, vals))


# (sample, point) pairs per block of phi_risks_from_matrix: 64 KB
# temporaries stay in cache and are reused without page faults.
_GRID_BLOCK_PAIRS = 1 << 13


def phi_risks_from_matrix(H: np.ndarray, grid: np.ndarray, s: Surrogate,
                          sign: float) -> np.ndarray:
    """np.mean(phi(sign * H @ grid.T), axis=0) bit for bit, in blocks.

    numpy sums two or more columns in row order, so runs of up to 128 grid
    points take H a block of rows at a time and continue the column sums.
    A lone point or row is scored whole and blocks keep two rows or more,
    as numpy sums a lone column pairwise and multiplies a lone row or
    column through another BLAS routine.
    """
    if grid.shape[0] == 1 or H.shape[0] == 1:
        return np.mean(s.eval(sign * (H @ grid.T)), axis=0)
    out = []
    for run in np.array_split(grid, -(-grid.shape[0] // 128)):
        rows = max(2, _GRID_BLOCK_PAIRS // run.shape[0])
        total = None
        for block in np.array_split(H, max(1, H.shape[0] // rows)):
            vals = s.eval(sign * (block @ run.T))
            total = np.add.reduce(vals if total is None else np.vstack([total, vals]), axis=0)
        out.append(total / H.shape[0])
    return np.concatenate(out)


# (atom, point) pairs per run of WeightedAtoms.phi_risk_grid: 32 MB of
# temporaries; every exact-atom caller scores its <= 200k-point chunk whole
_ATOM_BLOCK_PAIRS = 1 << 22


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
        if np.any(w < -1e-12) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise DomainError("atom weights must be a probability vector")
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

        Scored in runs of grid points that hold at most _ATOM_BLOCK_PAIRS
        (atom, point) pairs, so memory stays flat for a large reference
        sample.  A run that covers the grid scores it whole, bit for bit.
        """
        run = max(1, _ATOM_BLOCK_PAIRS // self.H.shape[0])
        return np.concatenate([self.weights @ s.eval(sign * (self.H @ grid[i:i + run].T))
                               for i in range(0, max(1, grid.shape[0]), run)])


def empirical_atoms(H: np.ndarray) -> WeightedAtoms:
    """The rows of H as atoms: identical rows merge into one of weight
    count/n, so a stump dictionary's draws make only a few atoms."""
    H = _require_nonempty(H, "empirical")
    n = H.shape[0]
    # rows in np.unique(axis=0) order, at a tenth of its cost
    H = H[np.lexsort(H.T[::-1])]
    starts = np.flatnonzero(np.r_[True, np.any(H[1:] != H[:-1], axis=1)])
    return WeightedAtoms(H=H[starts], weights=np.diff(starts, append=n) / n, n=n)
