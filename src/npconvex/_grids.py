"""Uniform grids on the flat simplex, in lexicographic order, and the
one first-hit scan every grid referee shares.

Grid points are integer compositions of K into m parts divided by K;
one enumerator produces them for any m, lexicographic in (lambda_1,
lambda_2, ...), which is what the oracle tie-break relies on.
argmin_feasible scans a stream of candidate points for the best
feasible one, and affine_window shrinks the M = 3 candidate stream to a
few points per row when the constraint is affine in the weights.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Optional, Tuple

import numpy as np

from .errors import DomainError


def _check(m: int, k: int) -> None:
    if m < 1 or k < 1:
        raise DomainError(f"grid needs m >= 1 and k >= 1, got m={m}, k={k}")


def _blocks(m: int, k: int, prefix: tuple = ()) -> Iterator[np.ndarray]:
    """Integer compositions of k into m parts after the fixed `prefix`.

    Yields one integer block per prefix of all but the last two
    coordinates, whose values come from one arange; blocks and rows
    follow lexicographic order.
    """
    if m > 2:
        for i in range(k + 1):
            yield from _blocks(m - 1, k - i, prefix + (i,))
        return
    j = np.arange(k + 1)
    tail = np.column_stack([j, k - j]) if m == 2 else np.array([[k]])
    head = np.full((tail.shape[0], len(prefix)), prefix, dtype=tail.dtype)
    yield np.hstack([head, tail])


def grid_steps(resolution: float) -> int:
    """Grid steps per unit, round(1 / resolution), for a resolution in (0, 0.5]."""
    if not 0.0 < resolution <= 0.5:
        raise DomainError(f"resolution must lie in (0, 0.5], got {resolution}")
    return round(1.0 / resolution)


def grid_count(m: int, k: int) -> int:
    return math.comb(k + m - 1, m - 1)


def grid_points(m: int, k: int) -> np.ndarray:
    """All grid points as a (P, m) array, lexicographically ordered."""
    _check(m, k)
    return np.vstack(list(_blocks(m, k))) / k


def iter_grid_chunks(m: int, k: int, chunk: int = 200_000) -> Iterator[np.ndarray]:
    """Yield grid points in lexicographic order without materializing the
    whole grid; memory stays near `chunk` rows (a yield may run over by
    one block)."""
    _check(m, k)
    buf, size = [], 0
    for block in _blocks(m, k):
        buf.append(block)
        size += block.shape[0]
        if size >= chunk:
            yield np.vstack(buf) / k
            buf, size = [], 0
    if buf:
        yield np.vstack(buf) / k


def argmin_feasible(chunks: Iterable[np.ndarray],
                    constraint_values: Callable[[np.ndarray], np.ndarray],
                    objective_values: Callable[[np.ndarray], np.ndarray],
                    level: float) -> Tuple[Optional[np.ndarray], float]:
    """Best point with constraint_values <= level over a stream of chunks.

    Returns (lam, value), or (None, inf) when no point is feasible.  A
    chunk with a feasible point has the objective scored on all its
    points, infeasible ones counting as +inf, so a scan's cost follows the
    chunks and not the shape of the feasible set.  Ties go to the first
    point in stream order: argmin takes the first index inside a chunk,
    and a later chunk must improve strictly.
    """
    best_lam, best_val = None, math.inf
    for chunk in chunks:
        feasible = constraint_values(chunk) <= level
        if not np.any(feasible):
            continue
        vals = np.where(feasible, objective_values(chunk), np.inf)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val, best_lam = float(vals[j]), chunk[j].copy()
    return best_lam, best_val


def affine_window(const: float, coeffs: np.ndarray, level: float, k: int) -> np.ndarray:
    """Candidate M = 3 grid points for an affine constraint and objective.

    With const + coeffs @ lam <= level, each lambda_1 row of the grid has
    an interval of feasible j, and an objective affine in lam is monotone
    in j there, so only the interval endpoints can win.  Each endpoint is
    padded by two grid steps to guard the float boundary; the caller
    re-scores every candidate with its own formulas, so the scan over
    this window matches the exhaustive scan up to float rounding.
    Candidates come back in lexicographic order.
    """
    i = np.arange(k + 1)
    j_max = k - i
    # const + coeffs @ (i, j, k - i - j) / k = c0 + cj * j along row i
    c0 = const + (coeffs[0] * i + coeffs[2] * (k - i)) / k
    cj = (coeffs[1] - coeffs[2]) / k
    if abs(cj) < 1e-300:
        lo, hi = np.zeros(k + 1), np.where(c0 <= level, j_max, -1)
    elif cj > 0:
        lo, hi = np.zeros(k + 1), np.clip(np.floor((level - c0) / cj), -1, j_max)
    else:
        lo, hi = np.clip(np.ceil((level - c0) / cj), 0, k + 1), j_max
    rows = lo <= hi
    ends = np.column_stack([lo[rows], hi[rows]]).astype(np.int64)
    j = ends[:, :, None] + np.arange(-2, 3)
    keep = (j >= 0) & (j <= j_max[rows, None, None])
    codes = np.unique((i[rows, None, None] * (k + 1) + j)[keep])
    i, j = np.divmod(codes, k + 1)
    return np.column_stack([i, j, k - i - j]) / k
