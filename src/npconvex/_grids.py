"""Uniform grids on the flat simplex, in lexicographic order, and the
one first-hit scan every grid referee shares.

Grid points are integer compositions of K into m parts divided by K;
one enumerator produces them for any m, lexicographic in (lambda_1,
lambda_2, ...), which is what the oracle tie-break relies on.
argmin_feasible scans a stream of candidate points once for the best
feasible one at each constraint level (one for the oracles, a curve of
them for gamma_curve), and affine_window shrinks the M = 2 or M = 3
candidate stream to a few points per row, on the rows that can still win,
when the constraint and the objective are affine.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, check_count, check_real

#: rows per chunk of iter_grid_chunks (bounds a grid scan's memory)
CHUNK_ROWS = 200_000


def _check(m: int, k: int) -> None:
    check_count(m, "m")
    check_count(k, "k")


def _compositions(m: int, k: int) -> Iterator[np.ndarray]:
    """Integer compositions of k into m parts, in lexicographic order.

    A block is the run of compositions that share their first m - 2
    parts.  Each prefix is a row (p, t) of the compositions into m - 1
    parts, and it expands to the t + 1 rows (p, j, t - j), j = 0..t.
    Whole blocks are expanded together, a run of them per np.repeat, and
    a chunk is yielded as soon as it holds CHUNK_ROWS rows, so it may
    run over by up to one block.
    """
    if m <= 2:
        j = np.arange(k + 1)
        yield np.column_stack([j, k - j]) if m == 2 else np.array([[k]])
        return
    buf, size = [], 0
    for prefixes in _compositions(m - 1, k):
        counts = prefixes[:, -1] + 1
        ends = np.cumsum(counts)
        start = 0
        while start < ends.size:
            done = ends[start - 1] if start else 0
            # the first block at which the chunk reaches CHUNK_ROWS rows
            stop = min(int(np.searchsorted(ends, done + CHUNK_ROWS - size)) + 1, ends.size)
            run, reps = prefixes[start:stop], counts[start:stop]
            # each row's place in its block: its place in the grid less the block's start
            j = np.arange(done, ends[stop - 1]) - np.repeat(ends[start:stop] - reps, reps)
            buf.append(np.column_stack([np.repeat(run[:, :-1], reps, axis=0), j,
                                        np.repeat(run[:, -1], reps) - j]))
            size += j.size
            start = stop
            if size >= CHUNK_ROWS:
                yield buf[0] if len(buf) == 1 else np.vstack(buf)
                buf, size = [], 0
    if buf:
        yield buf[0] if len(buf) == 1 else np.vstack(buf)


def grid_steps(resolution: float) -> int:
    """Grid steps per unit, round(1 / resolution), for a resolution in (0, 0.5]."""
    return round(1.0 / check_real(resolution, "resolution", 0, 0.5, "(]"))


def grid_count(m: int, k: int) -> int:
    return math.comb(k + m - 1, m - 1)


def grid_points(m: int, k: int) -> np.ndarray:
    """All grid points as a (P, m) array, lexicographically ordered."""
    _check(m, k)
    return np.vstack(list(_compositions(m, k))) / k


def iter_grid_chunks(m: int, k: int) -> Iterator[np.ndarray]:
    """Yield grid points in lexicographic order without materializing the
    whole grid; memory stays near CHUNK_ROWS rows (a yield may run over
    by one block)."""
    _check(m, k)
    for chunk in _compositions(m, k):
        yield chunk / k


def argmin_feasible(chunks: Iterable[np.ndarray],
                    constraint_values: Callable[[np.ndarray], np.ndarray],
                    objective_values: Callable[[np.ndarray], np.ndarray],
                    levels: Sequence[float]) -> List[Tuple[Optional[np.ndarray], float]]:
    """Per level, the best point with constraint_values <= level, from one
    pass over a stream of chunks: a (lam, value) pair, or (None, inf).

    A chunk that no level finds feasible is skipped; otherwise both values
    are scored once on all its points, infeasible ones counting as +inf,
    so a scan's cost follows the chunks and not the shape of the feasible
    set.  Ties go to the first point in stream order: argmin takes the
    first index inside a chunk, and a later chunk must improve strictly.
    """
    best = [(None, math.inf)] * len(levels)
    top = max((x for x in levels if not math.isnan(x)), default=None)
    if top is None:  # no level, or only NaN levels, which nothing meets
        return best
    for chunk in chunks:
        con = constraint_values(chunk)
        if not np.any(con <= top):
            continue
        obj = objective_values(chunk)
        for i, level in enumerate(levels):
            vals = np.where(con <= level, obj, np.inf)
            j = int(np.argmin(vals))
            if vals[j] < best[i][1]:
                best[i] = (chunk[j].copy(), float(vals[j]))
    return best


def affine_window(const: float, coeffs: np.ndarray, level: float, k: int,
                  objective: np.ndarray) -> np.ndarray:
    """Candidate M = 2 or M = 3 grid points for an affine constraint
    const + coeffs @ lam <= level and an affine objective objective @ lam,
    M being the number of coefficients.

    The M = 3 grid has one row per lambda_1, its points (i, j, k - i - j) / k;
    the M = 2 grid is the one row (j, k - j) / k.  Each row has an interval
    of feasible j, along which the objective moves by
    o = (objective[-2] - objective[-1]) / k per step, so only the end it
    favours can win: the lower end when o >= 0 (a flat row offers its first
    feasible point), else the upper.  That end is padded by two grid steps
    to guard the float boundary.  At M = 3 a row whose interval holds two
    points has one feasible by a whole constraint step, which rounding
    cannot reject, worth at most est + |o|, est being the row's objective
    at its favoured end; a row whose est - 2|o| exceeds the least such
    bound by more than a rounding allowance can neither beat nor tie it,
    and is dropped.  No row is dropped when one step moves the constraint
    by no more than rounding, or when no row holds two points.  The caller
    re-scores every candidate with its own formulas, so the scan over this
    window matches the exhaustive scan up to float rounding, except that
    points tied in exact arithmetic are not all offered.  Candidates come
    out distinct and in lexicographic order.
    """
    m = len(coeffs)
    if m not in (2, 3) or len(objective) != m:
        raise DomainError(f"the affine window needs 2 or 3 constraint and as many objective "
                          f"coefficients, got {m} and {len(objective)}")
    # M = 2 is the row i = 0 of an M = 3 grid whose first weight costs nothing
    i, (ca, cb, cc), (oa, ob, oc) = (
        (np.arange(k + 1.0), coeffs, objective) if m == 3
        else (np.zeros(1), (0.0, *coeffs), (0.0, *objective)))
    j_max = k - i
    # const + coeffs @ (i, j, k - i - j) / k = c0 + cj * j along row i, and
    # likewise the objective changes by oj per step of j
    c0 = const + (ca * i + cc * j_max) / k
    cj, oj = (cb - cc) / k, (ob - oc) / k
    if abs(cj) < 1e-300:
        lo, hi = np.zeros(i.size), np.where(c0 <= level, j_max, -1)
    elif cj > 0:
        lo, hi = np.zeros(i.size), np.clip(np.floor((level - c0) / cj), -1, j_max)
    else:
        lo, hi = np.clip(np.ceil((level - c0) / cj), 0, k + 1), j_max
    rows = lo <= hi
    end = lo if oj >= 0 else hi
    two = hi > lo
    # the bound never prunes a lone row, so M = 2 skips it
    if m == 3 and abs(cj) > 1e-12 * (abs(const) + max(abs(ca), abs(cb), abs(cc)) + 1) \
            and two.any():
        est = (oa - oc) / k * i + oj * end  # the objective at the end, less oc
        bound = np.min(est, where=two, initial=np.inf) + 3 * abs(oj) \
            + 1e-12 * (max(abs(oa), abs(ob), abs(oc)) + 1)
        rows &= est <= bound
    j = end[rows, None].astype(np.int64) + np.arange(-2, 3)
    keep = (j >= 0) & (j <= j_max[rows, None])
    i, j = (i[rows, None] + 0 * j)[keep], j[keep]
    return np.column_stack([i, j, k - i - j][3 - m:]) / k
