"""Base-classifier dictionaries and their convex combinations.

A dictionary holds M base classifiers h_j mapping feature vectors to
[-1, 1].  Mixing weights live on the flat simplex, and the combined
classifier h_lambda(x) = sum_j lambda_j h_j(x) predicts through its
sign, with the tie h_lambda(x) = 0 mapped to +1 so the prediction rule
and the error indicator 1(h(X) >= 0) agree exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (BaseRangeError, DimensionMismatch, DomainError, EmptyData,
                     NonFiniteValue, SchemaError, check_count, check_real)

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
        check_count(self.axis, "stump axis", 0)
        check_real(self.threshold, "stump threshold", -math.inf, math.inf, "[]")

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
        check_real(self.value, "constant classifier value", -1, 1, "[]")

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], float(self.value))

    def min_dim(self) -> int:
        return 0

    def to_json(self) -> dict:
        return {"kind": "constant", "value": float(self.value)}


class FunctionClassifier:
    """User-registered base: a callable on one feature vector.

    The dictionary checks and clips the output range on every batch it
    evaluates (BaseDictionary._columns).
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


#: the stock stumps of one axis, in base order: their base indexes, float
#: polarities, threshold ranks and sorted distinct float thresholds
_AxisStumps = namedtuple("_AxisStumps", "axis columns polarities ranks thresholds")


class BaseDictionary:
    """Immutable collection of M >= 1 base classifiers, with the column
    plan its readers share: the feature dimension the bases need, the stock
    stumps by axis, the stock constants, and the opaque rest.  Stock means
    type exactly DecisionStump or ConstantClassifier: a subclass is opaque."""

    def __init__(self, bases: Sequence, dim: Optional[int] = None):
        if len(bases) < 1:
            raise DomainError("a dictionary needs at least one base classifier")
        self.bases: Tuple = tuple(bases)
        self.dim = None if dim is None else int(check_count(
            dim, "dim", message="dictionary dim must be a positive integer or None, got {}"))
        self._min_dim = max(b.min_dim() for b in self.bases)
        by_axis, consts, opaque = {}, [], []
        for j, b in enumerate(self.bases):
            if type(b) is DecisionStump:
                by_axis.setdefault(b.axis, []).append(j)
            else:
                (consts if type(b) is ConstantClassifier else opaque).append(j)
        self._constants = (np.array(consts, dtype=np.intp),
                           np.array([self.bases[j].value for j in consts], dtype=float))
        self._opaque = np.array(opaque, dtype=np.intp)
        self._stumps = []
        for axis, idx in sorted(by_axis.items()):
            t, k = np.unique([float(self.bases[j].threshold) for j in idx], return_inverse=True)
            pol = np.array([self.bases[j].polarity for j in idx], dtype=float)
            self._stumps.append(_AxisStumps(axis, np.array(idx, dtype=np.intp), pol, k, t))

    @property
    def m(self) -> int:
        return len(self.bases)

    def _as_features(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D feature matrix, got ndim={X.ndim}")
        d = X.shape[1]
        if self.dim is not None and d != self.dim:
            raise DimensionMismatch(f"data has dimension {d}, dictionary expects {self.dim}")
        if d < self._min_dim:
            raise DimensionMismatch(f"data has dimension {d}, dictionary needs at least "
                                    f"{self._min_dim}")
        return X

    def _columns(self, X: np.ndarray, columns: Sequence[int]):
        """Yield h_j(X) for each base index j of `columns`, in that order.

        The one range check on base values: each column is checked as it
        is evaluated, and the first failing base raises, naming its first
        NaN, or else its first entry of largest magnitude.  Later bases
        are not called.  A column within RANGE_TOL of [-1, 1] is clipped
        into it, the surrogates' domain.  X comes from _as_features.
        """
        # column-major, so a base reading one feature scans contiguous memory
        X = np.asfortranarray(X)
        for j in columns:
            col = np.asarray(self.bases[j].evaluate_batch(X), dtype=float)
            peak = np.max(np.abs(col), initial=0.0)
            if not peak <= 1.0 + RANGE_TOL:  # NaN fails too
                bad = float(col[np.argmax(np.abs(col))])  # argmax picks the first NaN
                raise BaseRangeError(f"base {j} returned {bad!r}, outside [-1, 1]")
            yield np.clip(col, -1.0, 1.0) if peak > 1.0 else col

    def column_means(self, X: np.ndarray) -> np.ndarray:
        """The M column means of evaluate_matrix(X), with its range check.

        Scratch memory is O(n): no (n, M) matrix is formed.  Opaque and
        constant columns are averaged by np.mean.  The stumps of one axis
        share one sort of it and one search of their distinct thresholds:
        with c = #{x <= threshold}, a stump's mean is polarity (2c - n) / n,
        bit for bit np.mean of its +-1 column, whose pairwise sum is an
        exact integer.  NaN features sort last and count as > threshold.
        Counts from the row bins of `operator` are bitwise equal but slower:
        22-26 ms against 5-6 ms at n = 4e4, d = 10, M = 1001 on a 2-vCPU
        x86 machine.
        """
        X = self._as_features(X)
        n = X.shape[0]
        if n == 0:
            raise EmptyData("column means need at least one row")
        out = np.empty(self.m)
        evaluated = np.concatenate([self._opaque, self._constants[0]])
        out[evaluated] = [np.mean(col) for col in self._columns(X, evaluated)]
        for g in self._stumps:
            counts = np.searchsorted(np.sort(X[:, g.axis]), g.thresholds, side="right")
            out[g.columns] = g.polarities * (2 * counts[g.ranks] - n) / n
        return out

    def evaluate_matrix(self, X: np.ndarray) -> np.ndarray:
        """(n, M) matrix H[i, j] = h_j(x_i), by each base's own evaluate_batch; range-checked."""
        return np.column_stack(list(self._columns(self._as_features(X), range(self.m))))

    def operator(self, X: np.ndarray) -> "DictionaryOperator":
        """evaluate_matrix(X) as a linear operator, with its range check.

        Per call, each stump axis gets one bin per row, and the opaque
        bases are evaluated into a dense block: O(n d + M) memory beyond
        that block.  Stock stumps and constants are never evaluated.
        """
        X = self._as_features(X)
        block = (np.column_stack(list(self._columns(X, self._opaque)))
                 if self._opaque.size else None)
        return DictionaryOperator((X.shape[0], self.m), self._constants,
                                  (self._opaque, block), list(zip(self._stumps, self._bins(X))))

    def _bins(self, X: np.ndarray) -> list:
        """Each stump axis's bin per row of X: row i reads +polarity on stump
        j iff bins[i] <= ranks[j]; NaN lands in bin #thresholds."""
        return [np.searchsorted(g.thresholds, X[:, g.axis], side="left") for g in self._stumps]

    def risk_operator(self, X: np.ndarray) -> Tuple["DictionaryOperator", Optional[np.ndarray]]:
        """(operator, weights) whose weighted rows are the rows of X: a
        weighted mean over them is the mean over the rows of X.

        Without opaque bases, h_lam(x) depends on x only through its stump
        cell, one bin per axis.  When the cells, prod(#thresholds + 1) over
        the axes, number at most n = len(X), each row merges into its cell:
        the operator has one row per occupied cell, with weight count / n.
        Otherwise this is (operator(X), None), None meaning uniform weights.
        """
        X = self._as_features(X)
        n = X.shape[0]
        dims = tuple(g.thresholds.size + 1 for g in self._stumps)
        total = math.prod(dims)  # a Python int: no overflow
        if self._opaque.size or total > n:
            return self.operator(X), None
        bins = self._bins(X)
        cell = np.ravel_multi_index(bins, dims) if bins else np.zeros(n, dtype=np.intp)
        counts = np.bincount(cell, minlength=total)
        occupied = np.flatnonzero(counts)
        cells = np.unravel_index(occupied, dims) if dims else ()
        op = DictionaryOperator((occupied.size, self.m), self._constants,
                                (self._opaque, None), list(zip(self._stumps, cells)))
        return op, counts[occupied] / n

    def to_json(self) -> dict:
        return {"dim": self.dim, "bases": [b.to_json() for b in self.bases]}

    @staticmethod
    def from_json(obj: dict) -> "BaseDictionary":
        """The dictionary of to_json(), with exact JSON types: an axis and a
        polarity are integers, a threshold and a value numbers, never
        booleans, and dim a positive integer or null.  A wrong type or a
        missing key raises SchemaError naming the base and the key."""
        dim = obj.get("dim")
        if dim is not None and not (type(dim) is int and dim >= 1):
            raise SchemaError(f"dictionary JSON 'dim' must be a positive integer or null, "
                              f"got {dim!r}")
        bases = []
        for i, entry in enumerate(obj.get("bases", [])):
            if not isinstance(entry, dict):
                raise SchemaError(f"dictionary JSON base {i} must be an object, got {entry!r}")

            def read(key, types=(int, float), name="a number"):
                if type(entry.get(key)) not in types:
                    raise SchemaError(f"dictionary JSON base {i} {key!r} must be {name}, got "
                                      + (repr(entry[key]) if key in entry else "nothing"))
                return entry[key]
            kind = entry.get("kind")
            if kind == "stump":
                bases.append(DecisionStump(read("axis", (int,), "an integer"),
                                           float(read("threshold")),
                                           read("polarity", (int,), "an integer")))
            elif kind == "constant":
                bases.append(ConstantClassifier(float(read("value"))))
            else:
                raise DomainError(f"unknown base kind {kind!r} in dictionary JSON")
        return BaseDictionary(bases, dim=dim)


class DictionaryOperator:
    """The products H @ lam and H.T @ v of H = evaluate_matrix(X), from
    BaseDictionary.operator, without forming H's stump or constant columns;
    from risk_operator, H holds one row per occupied stump cell instead.

    On one axis, with k[j] the rank of stump j's threshold and bins[i]
    the number of thresholds below x_i, h_j(x_i) = pol[j] (2 [bins[i] <=
    k[j]] - 1).  So H @ lam adds table[bins], table[b] = 2 (sum of
    pol lam over ranks >= b) - (sum of pol lam), and stump j's entry of
    H.T @ v is pol[j] (2 (sum of v over bins <= k[j]) - sum v).  A
    constant c adds c lam_j to every row, and its entry is c sum v (as
    an (n, 1) column in a BLAS product, which BLAS threads, it cost more
    than all the stumps).  Other bases form a dense block of matrix
    products.  Sums run in another order than in H @ lam, so results
    agree with the dense ones to rounding, and bit for bit when every
    base is in the dense block.
    """

    def __init__(self, shape, consts, dense, axes):
        self.shape = shape
        self._consts = consts  # (columns, values)
        self._dense = dense  # (columns, (n, len(columns)) block or None)
        self._axes = axes  # (_AxisStumps, bins) per axis

    def matvec(self, lam: np.ndarray) -> np.ndarray:
        idx, block = self._dense
        out = np.zeros(self.shape[0]) if block is None else block @ lam[idx]
        idx, values = self._consts
        if idx.size:
            out += float(values @ lam[idx])
        for g, bins in self._axes:
            # suffix[#thresholds] = 0: no stump has that rank
            suffix = np.cumsum(np.bincount(g.ranks, g.polarities * lam[g.columns],
                                           minlength=g.thresholds.size + 1)[::-1])[::-1]
            out += (2.0 * suffix - suffix[0]).take(bins)  # same bits as [bins], a little faster
        return out

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        out = np.empty(self.shape[1])
        idx, block = self._dense
        if block is not None:
            out[idx] = block.T @ v
        idx, values = self._consts
        if idx.size:
            out[idx] = values * np.sum(v)
        for g, bins in self._axes:
            below = np.cumsum(np.bincount(bins, v, minlength=g.thresholds.size + 1))
            out[g.columns] = g.polarities * (2.0 * below[g.ranks] - below[-1])
        return out


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
        out = self.dictionary.evaluate_matrix(X) @ self.weights.lam
        # a convex combination of [-1, 1] columns; shave off float dust
        return np.clip(out, -1.0, 1.0)

    def predict_sign_batch(self, X: np.ndarray) -> np.ndarray:
        vals = self.evaluate_batch(X)
        return np.where(vals >= 0.0, 1, -1)


def build_stump_dictionary(data: np.ndarray, per_axis_thresholds: int) -> BaseDictionary:
    """Stumps at empirical quantiles of each feature axis.

    Thresholds sit at the k/(T+1) quantiles, k = 1..T, bit for bit those
    of np.quantile; where its lerp meets an infinity (NaN), the value both
    neighbouring order statistics share, else NonFiniteValue.  Both
    polarities are emitted for every threshold, ordered axis-major,
    threshold-minor, polarity-last (+1 before -1); exact duplicates are
    dropped.  A zero threshold is always +0.0.
    """
    stumps, d = _quantile_stumps(data, per_axis_thresholds)
    return BaseDictionary(stumps, dim=d)


def _quantile_stumps(data, per_axis_thresholds: int) -> Tuple[list, int]:
    """(stumps, feature dimension) of build_stump_dictionary(data, ...)."""
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.size == 0:
        raise EmptyData("cannot build stumps from an empty data matrix")
    check_count(per_axis_thresholds, "per_axis_thresholds")
    if np.isnan(X).any():  # np.quantile would make every threshold NaN
        raise NonFiniteValue("cannot build stumps from data containing NaN")
    n, d = X.shape
    levels = np.arange(1, per_axis_thresholds + 1) / (per_axis_thresholds + 1)
    # np.quantile's linear method: virtual index (n - 1) q between the order
    # statistics at its floor and ceiling, read here off one sorted column
    index = (n - 1) * levels
    below = np.floor(index)
    gamma = index - below
    below = below.astype(np.intp)
    above = np.minimum(below + 1, n - 1)  # at n = 1 both ends are the one row
    stumps = []
    for axis in range(d):
        column = np.sort(X[:, axis])
        a, b = column[below], column[above]
        with np.errstate(invalid="ignore"):  # the lerp meets inf - inf and 0 * inf
            diff = b - a
            # numpy's _lerp, which works from the right end when gamma >= 0.5
            thresholds = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
        undefined = np.isnan(thresholds)
        if undefined.any():
            lower = a[undefined]
            if not np.array_equal(lower, column[np.ceil(index[undefined]).astype(np.intp)]):
                raise NonFiniteValue(
                    f"cannot build stumps on axis {axis}: a quantile level interpolates "
                    "with an infinite value")
            thresholds[undefined] = lower
        # which of two equal zeros the sort leaves at an order statistic is
        # arbitrary, and the lerp's sign follows it: -0.0 + 0.0 is +0.0.
        # The quantiles ascend, so only neighbours can repeat
        thresholds = thresholds + 0.0
        for t in thresholds[np.r_[True, thresholds[1:] != thresholds[:-1]]]:
            stumps += [DecisionStump(axis, float(t), 1), DecisionStump(axis, float(t), -1)]
    return stumps, d
