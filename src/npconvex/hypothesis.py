"""Base-classifier dictionaries and their convex combinations.

A dictionary holds M base classifiers h_j mapping feature vectors to
[-1, 1].  Mixing weights live on the flat simplex, and the combined
classifier h_lambda(x) = sum_j lambda_j h_j(x) predicts through its
sign, with the tie h_lambda(x) = 0 mapped to +1 so the prediction rule
and the error indicator 1(h(X) >= 0) agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (BaseRangeError, DimensionMismatch, DomainError, EmptyData,
                     NonFiniteValue)

RANGE_TOL = 1e-9
SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class DecisionStump:
    """h(x) = polarity if x[axis] <= threshold else -polarity."""

    axis: int
    threshold: float
    polarity: int

    def __post_init__(self):
        if self.polarity not in (-1, 1):
            raise DomainError(f"stump polarity must be +1 or -1, got {self.polarity}")
        if self.axis < 0:
            raise DomainError(f"stump axis must be nonnegative, got {self.axis}")
        if np.isnan(self.threshold):
            raise DomainError("stump threshold must not be NaN")

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        return np.where(X[:, self.axis] <= self.threshold, float(self.polarity), -float(self.polarity))

    def min_dim(self) -> int:
        return self.axis + 1

    def to_json(self) -> dict:
        return {
            "kind": "stump",
            "axis": self.axis,
            "threshold": float(self.threshold),
            "polarity": self.polarity,
        }


@dataclass(frozen=True)
class ConstantClassifier:
    """h(x) = value for every x."""

    value: float

    def __post_init__(self):
        if not -1.0 <= self.value <= 1.0:
            raise DomainError(f"constant classifier value {self.value} outside [-1, 1]")

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], float(self.value))

    def min_dim(self) -> int:
        return 0

    def to_json(self) -> dict:
        return {"kind": "constant", "value": float(self.value)}


class FunctionClassifier:
    """User-registered base: a callable on one feature vector.

    The dictionary validates the output range on every batch it
    evaluates; nothing is clamped.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], name: str = "user"):
        self.fn = fn
        self.name = name

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        fn = self.fn
        return np.asarray([float(fn(row)) for row in X], dtype=float)

    def min_dim(self) -> int:
        return 0

    def to_json(self) -> dict:
        raise DomainError(f"user function base {self.name!r} is not serializable")


class BaseDictionary:
    """Immutable collection of M >= 1 base classifiers."""

    def __init__(self, bases: Sequence, dim: Optional[int] = None):
        if len(bases) < 1:
            raise DomainError("a dictionary needs at least one base classifier")
        self.bases: Tuple = tuple(bases)
        self.dim = dim

    @property
    def m(self) -> int:
        return len(self.bases)

    def _check_dim(self, X: np.ndarray) -> None:
        d = X.shape[1]
        if self.dim is not None and d != self.dim:
            raise DimensionMismatch(f"data has dimension {d}, dictionary expects {self.dim}")
        need = max(b.min_dim() for b in self.bases)
        if d < need:
            raise DimensionMismatch(f"data has dimension {d}, dictionary needs at least {need}")

    def _as_features(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D feature matrix, got ndim={X.ndim}")
        self._check_dim(X)
        return X

    def _columns(self, X: np.ndarray, reduce: Callable[[np.ndarray], object],
                 stump: Optional[Callable[[DecisionStump], object]] = None) -> list:
        """[reduce(h_j(X)) for each base j], one base column at a time.

        With `stump`, a base of type exactly DecisionStump yields stump(b)
        instead; its +-1 values never fail the range check.  The one range
        check on base values: it names the first NaN, or else the first
        entry of largest magnitude, in row-major order.
        """
        # column-major, so a base reading one feature scans contiguous memory
        X = np.asfortranarray(self._as_features(X))
        out = []
        rows = np.zeros(self.m, dtype=np.intp)  # first argmax of |h_j(x_i)|
        values = np.zeros(self.m)  # h_j there; NaN wins argmax
        for j, b in enumerate(self.bases):
            if stump is not None and type(b) is DecisionStump:
                out.append(stump(b))
                continue
            col = np.asarray(b.evaluate_batch(X), dtype=float)
            if col.size:
                rows[j] = np.argmax(np.abs(col))
                values[j] = col[rows[j]]
            out.append(reduce(col))
        peaks = np.abs(values)
        peak = float(np.max(peaks))
        if not peak <= 1.0 + RANGE_TOL:  # NaN fails too
            ties = np.flatnonzero((peaks == peak) | np.isnan(peaks))
            j = int(ties[np.argmin(rows[ties])])
            raise BaseRangeError(f"base {j} returned {float(values[j])!r}, outside [-1, 1]")
        return out

    def column_means(self, X: np.ndarray) -> np.ndarray:
        """The M column means of evaluate_matrix(X), with its range check.

        Scratch memory is O(n): no (n, M) matrix is formed.  A stump's
        mean comes from one sort of its axis, shared by every stump on
        that axis: with c = #{x <= threshold}, it is polarity (2c - n) / n,
        bit for bit np.mean of its +-1 column, whose pairwise sum is an
        exact integer.  NaN features sort last and count as > threshold.
        """
        X = self._as_features(X)
        n = X.shape[0]
        if n == 0:
            raise EmptyData("column means need at least one row")
        sorted_axes = {}

        def stump_mean(b: DecisionStump) -> float:
            if b.axis not in sorted_axes:
                sorted_axes[b.axis] = np.sort(X[:, b.axis])
            c = int(np.searchsorted(sorted_axes[b.axis], b.threshold, side="right"))
            return float(b.polarity * (2 * c - n)) / n

        return np.array(self._columns(X, np.mean, stump_mean))

    def evaluate_matrix(self, X: np.ndarray) -> np.ndarray:
        """(n, M) matrix H with H[i, j] = h_j(x_i); validates the range."""
        return np.column_stack(self._columns(X, lambda col: col))

    def to_json(self) -> dict:
        return {"dim": self.dim, "bases": [b.to_json() for b in self.bases]}

    @staticmethod
    def from_json(obj: dict) -> "BaseDictionary":
        bases = []
        for entry in obj.get("bases", []):
            kind = entry.get("kind")
            if kind == "stump":
                bases.append(DecisionStump(int(entry["axis"]), float(entry["threshold"]),
                                           int(entry["polarity"])))
            elif kind == "constant":
                bases.append(ConstantClassifier(float(entry["value"])))
            else:
                raise DomainError(f"unknown base kind {kind!r} in dictionary JSON")
        return BaseDictionary(bases, dim=obj.get("dim"))


@dataclass(frozen=True)
class SimplexWeights:
    """Nonnegative weights summing to 1 within 1e-12."""

    lam: np.ndarray

    def __init__(self, lam):
        arr = np.asarray(lam, dtype=float).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("weights must be a nonempty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise DomainError("weights contain non-finite entries")
        if np.any(arr < -SIMPLEX_TOL):
            raise DomainError(f"negative weight {float(arr.min())}")
        total = float(arr.sum())
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise DomainError(f"weights sum to {total}, expected 1")
        arr[arr < 0.0] = 0.0
        arr.setflags(write=False)
        object.__setattr__(self, "lam", arr)

    @property
    def m(self) -> int:
        return self.lam.size

    def to_json(self) -> list:
        return [float(v) for v in self.lam]


@dataclass(frozen=True)
class CombinedClassifier:
    dictionary: BaseDictionary
    weights: SimplexWeights

    def __post_init__(self):
        if self.dictionary.m != self.weights.m:
            raise DimensionMismatch(
                f"{self.weights.m} weights for {self.dictionary.m} bases")

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        H = self.dictionary.evaluate_matrix(X)
        out = H @ self.weights.lam
        # a convex combination of [-1,1] values; shave off float dust only
        over = float(np.max(np.abs(out), initial=0.0)) - 1.0
        if over > RANGE_TOL:
            raise BaseRangeError(f"combined value exceeds [-1, 1] by {over}")
        return np.clip(out, -1.0, 1.0)

    def predict_sign_batch(self, X: np.ndarray) -> np.ndarray:
        vals = self.evaluate_batch(X)
        return np.where(vals >= 0.0, 1, -1)


def build_stump_dictionary(data: np.ndarray, per_axis_thresholds: int) -> BaseDictionary:
    """Stumps at empirical quantiles of each feature axis.

    Thresholds sit at the k/(T+1) quantiles, k = 1..T.  Both polarities
    are emitted for every threshold, ordered axis-major, threshold-minor,
    polarity-last (+1 before -1); exact duplicates are dropped.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.size == 0:
        raise EmptyData("cannot build stumps from an empty data matrix")
    if per_axis_thresholds < 1:
        raise DomainError("per_axis_thresholds must be >= 1")
    if np.isnan(X).any():  # np.quantile would make every threshold NaN
        raise NonFiniteValue("cannot build stumps from data containing NaN")
    n, d = X.shape
    levels = np.arange(1, per_axis_thresholds + 1) / (per_axis_thresholds + 1)
    bases = []
    seen = set()
    for axis in range(d):
        thresholds = np.quantile(X[:, axis], levels)
        for t in thresholds:
            for polarity in (1, -1):
                key = (axis, float(t), polarity)
                if key in seen:
                    continue
                seen.add(key)
                bases.append(DecisionStump(axis, float(t), polarity))
    return BaseDictionary(bases, dim=d)
