"""The simplex grid enumerator, the shared first-hit scan and the affine window."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from npconvex import _grids
from npconvex._grids import (affine_window, argmin_feasible, grid_count,
                             grid_points, iter_grid_chunks)
from npconvex.ccp import CCPInstance, grid_oracle_ccp, linear_objective
from npconvex.errors import DomainError, Infeasible
from npconvex.hypothesis import BaseDictionary, DecisionStump
from npconvex.np_solver import NPConfig, alpha_kappa, grid_oracle_np, kappa
from npconvex.risk import Sample
from npconvex.surrogate import hinge


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_enumerator_matches_product_reference(m, k, monkeypatch):
    want = np.array([p for p in itertools.product(range(k + 1), repeat=m)
                     if sum(p) == k]) / k
    np.testing.assert_array_equal(grid_points(m, k), want)
    monkeypatch.setattr(_grids, "CHUNK_ROWS", 4)
    chunks = list(iter_grid_chunks(m, k))
    np.testing.assert_array_equal(np.vstack(chunks), want)
    assert all(c.shape[0] >= 4 for c in chunks[:-1])
    assert grid_count(m, k) == want.shape[0]
    if m in (3, 4):
        # a chunk holds whole blocks (rows sharing their first m - 2 parts)
        # and is yielded as soon as it reaches CHUNK_ROWS rows, so only its
        # last block can take it to 4 rows or more
        for chunk, after in zip(chunks, chunks[1:]):
            assert not np.array_equal(chunk[-1, :-2], after[0, :-2])
            last = np.all(chunk[:, :-2] == chunk[-1, :-2], axis=1).sum()
            assert chunk.shape[0] - last < 4


def test_enumerator_rejects_empty_grids():
    with pytest.raises(DomainError):
        grid_points(3, 0)
    with pytest.raises(DomainError):
        next(iter_grid_chunks(0, 5))


def test_argmin_feasible_keeps_the_first_hit():
    # points are row ids; row 1 is infeasible at both levels (and best).
    # At level 1 rows 2 and 3 tie inside one chunk and row 4 ties again in
    # a later chunk: row 2 wins.  At level 6 rows 5 and 6 tie inside one
    # chunk and row 7 in a later one: row 5 wins
    con = np.array([0.0, 9.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    obj = np.array([5.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
    pts = np.arange(8.0)[:, None]
    chunks = [pts[:2], pts[1:2], pts[2:4], pts[4:5], pts[5:7], pts[7:]]
    scored = []

    def objective_values(rows):
        scored.extend(rows[:, 0])
        return obj[rows[:, 0].astype(int)]

    def constraint_values(rows):
        return con[rows[:, 0].astype(int)]

    both = argmin_feasible(chunks, constraint_values, objective_values, [1.0, 6.0])
    assert [(list(lam), val) for lam, val in both] == [([2.0], 1.0), ([5.0], 0.5)]
    # a chunk with a row feasible at some level is scored whole, once;
    # one feasible at no level is skipped
    assert scored == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    for level, (lam, val) in zip([1.0, 6.0], both):
        [(one_lam, one_val)] = argmin_feasible(chunks, constraint_values,
                                               objective_values, [level])
        assert one_lam.tobytes() == lam.tobytes() and one_val == val
    # a NaN level meets no point and hides none from the other levels
    nan_first = argmin_feasible(chunks, constraint_values, objective_values,
                                [np.nan, 6.0])
    assert nan_first[0] == (None, np.inf) and list(nan_first[1][0]) == [5.0]
    scored.clear()
    assert argmin_feasible([pts[1:2]], constraint_values, objective_values,
                           [1.0]) == [(None, np.inf)]
    assert argmin_feasible(chunks, constraint_values, objective_values, []) == []
    assert scored == []


# (k, m) with the ids k at M = 3 and k-m2 at M = 2
_WINDOW_KS = [2, 3, 5, 10, 50, 100, 400, 500, 1000]
_WINDOW_CASES = pytest.mark.parametrize(
    "k, m", [(k, 3) for k in _WINDOW_KS] + [(k, 2) for k in _WINDOW_KS],
    ids=[str(k) for k in _WINDOW_KS] + [f"{k}-m2" for k in _WINDOW_KS])


def _full_scan(m, k, constraint_values, objective_values, level):
    with pytest.MonkeyPatch.context() as mp:  # many chunks, many cross-chunk ties
        mp.setattr(_grids, "CHUNK_ROWS", 4096)
        return argmin_feasible(iter_grid_chunks(m, k), constraint_values,
                               objective_values, [level])[0]


def _assert_window_matches(scan_lam, scan_val, oracle_lam, oracle_val, flat):
    assert abs(oracle_val - scan_val) <= 1e-12
    if not flat:
        np.testing.assert_array_equal(oracle_lam, scan_lam)


@_WINDOW_CASES
def test_np_affine_window_matches_full_scan(k, m):
    rng = np.random.default_rng(k)
    s = hinge()
    for _ in range(3):
        bases = [DecisionStump(0, 0.995, -1), DecisionStump(0, float(rng.uniform(0.2, 0.9)), 1),
                 DecisionStump(0, float(rng.uniform(0.2, 0.9)), -1)]
        d = BaseDictionary(bases[:m], dim=1)
        sample = Sample(rng.uniform(0, 1, (200, 1)), rng.uniform(0.1, 1.0, (200, 1)))
        cfg = NPConfig(alpha=float(rng.uniform(0.9, 0.95)), delta=0.1, surrogate=s)
        H_minus = d.evaluate_matrix(sample.negatives)
        H_plus = d.evaluate_matrix(sample.positives)
        level = alpha_kappa(cfg.alpha, kappa(s.lipschitz, m, cfg.delta), 200)
        lam, val = _full_scan(
            m, k, lambda g: np.mean(s.eval(H_minus @ g.T), axis=0),
            lambda g: np.mean(s.eval(-(H_plus @ g.T)), axis=0), level)
        sol = grid_oracle_np(sample, d, cfg, resolution=1.0 / k)
        # flat along the last two weights; stump columns are +-1, so their sums are exact
        flat = H_plus[:, -2].sum() == H_plus[:, -1].sum()
        _assert_window_matches(lam, val, sol.weights.lam, sol.r_plus_phi, flat)


@_WINDOW_CASES
def test_ccp_affine_window_matches_full_scan(k, m):
    rng = np.random.default_rng(k + 1)
    a, b = hinge().affine_coefficients
    n = 2000
    scanned = 0
    for trial in range(8):
        G = np.column_stack([-np.ones(n), rng.uniform(-1.0, 1.0, n),
                             rng.uniform(-1.0, 1.0, n)])[:, :m]
        c = rng.uniform(-1.0, 1.0, 3)[:m]
        if trial == 0:
            c[-1] = c[-2]  # flat along j: only the value must agree
        inst = CCPInstance(alpha=float(rng.uniform(0.3, 0.45)), delta=0.1,
                           surrogate=hinge(), g_matrix=G, **linear_objective(c))
        level = alpha_kappa(inst.alpha, kappa(1.0, m, inst.delta), n)
        g_mean = G.mean(axis=0)
        lam, val = _full_scan(m, k, lambda g: a + b * (g @ g_mean), lambda g: g @ c, level)
        if lam is None:
            with pytest.raises(Infeasible):
                grid_oracle_ccp(inst, resolution=1.0 / k)
            continue
        sol = grid_oracle_ccp(inst, resolution=1.0 / k)
        _assert_window_matches(lam, val, sol.weights.lam, sol.objective_value,
                               c[-2] == c[-1])
        scanned += 1
    assert scanned >= 6


def _window_scan(const, coeffs, level, k, objective, constraint_values, objective_values):
    pts = affine_window(const, np.asarray(coeffs), level, k, np.asarray(objective))
    return argmin_feasible([pts], constraint_values, objective_values, [level])[0]


def _affine_scorers(const, coeffs, objective):
    return (lambda g: const + g @ np.asarray(coeffs)), (lambda g: g @ np.asarray(objective))


def _assert_same_scan(got, want):
    assert (got[0] is None) == (want[0] is None)
    if want[0] is not None:
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]


@pytest.mark.parametrize("k", [2, 3, 4, 10, 401, 10 ** 4])
def test_affine_window_candidates_ascend_strictly(k):
    rng = np.random.default_rng(k)
    cases = [(0.0, [0.2, 0.5, 0.5], 0.4),  # flat along j: whole rows feasible or not
             (0.0, [0.2, 3e-300 * k, 0.0], 0.1),  # near-flat, just off the flat branch
             (0.0, [0.2, 1e-301 * k, 0.0], 0.1),  # near-flat, inside it
             (0.0, [0.3, 0.9, -0.4], -1.0),  # no feasible row
             (0.0, [0.3, 0.9, -0.4], 10.0)]  # every point feasible
    cases += [(rng.uniform(-1, 1), rng.uniform(-1, 1, 3), rng.uniform(-1, 1))
              for _ in range(20)]
    # M = 2: the one row (j, k - j) / k
    cases += [(0.0, [0.5, 0.5], 0.4), (0.0, [0.5, 0.5], 0.6), (0.0, [3e-300 * k, 0.0], 0.0),
              (0.0, [1e-301 * k, 0.0], 0.0), (0.0, [0.9, -0.4], -1.0), (0.0, [0.9, -0.4], 10.0)]
    cases += [(rng.uniform(-1, 1), rng.uniform(-1, 1, 2), rng.uniform(-1, 1))
              for _ in range(20)]
    for const, coeffs, level in cases:
        m = len(coeffs)
        # a random objective and one flat along j; multiples of 1/64, so that
        # scored on integer grid coordinates every objective value is exact
        # and the exhaustive scan's ties are true ties
        random = np.round(rng.uniform(-1, 1, m) * 64) / 64
        flat = np.r_[random[:-1], random[-2]]
        for objective in (random, flat):
            pts = affine_window(const, np.array(coeffs), level, k, objective)
            assert pts.shape[1] == m
            ij = np.rint(pts[:, :-1] * k).astype(np.int64)
            np.testing.assert_array_equal(ij / k, pts[:, :-1])  # on the grid
            assert np.all(ij >= 0) and np.all(ij.sum(axis=1) <= k)
            np.testing.assert_array_equal(pts[:, -1], (k - ij.sum(axis=1)) / k)
            step = np.diff(ij, axis=0)
            # each step's first nonzero entry is positive
            assert np.all(step[np.arange(len(step)), np.argmax(step != 0, axis=1)] > 0)
            # the exhaustive scan's winner is a candidate, unless the rows are
            # so near flat that rounding outweighs the two-step padding
            if k <= 401 and not 0.0 < abs(coeffs[-2] - coeffs[-1]) < 1e-12:
                lam, _ = _full_scan(m, k, lambda g: const + g @ np.array(coeffs),
                                    lambda g: np.rint(g * k) @ objective, level)
                if lam is not None:
                    assert tuple(lam) in {tuple(p) for p in pts}
    assert affine_window(0.0, np.array([0.3, 0.9, -0.4]), -1.0, k, np.ones(3)).shape == (0, 3)
    assert affine_window(0.0, np.array([0.9, -0.4]), -1.0, k, np.ones(2)).shape == (0, 2)
    # 2 or 3 constraint coefficients, and one objective coefficient per weight
    for coeffs, objective in (([0.5], [1.0]), ([0.1, 0.2, 0.3, 0.4], [1.0] * 4),
                              ([0.3, 0.9, -0.4], [1.0, 2.0]), ([0.9, -0.4], [1.0, 2.0, 3.0]),
                              ([0.9, -0.4], [1.0])):
        with pytest.raises(DomainError):
            affine_window(0.0, np.array(coeffs), 0.5, k, np.array(objective))


def test_row_bound_survives_a_rejected_one_point_row():
    # (i + j) / k <= 1/2 leaves row i the points j = 0..25 - i; the objective
    # favours the upper end and improves along i, so the best row is i = 25,
    # whose interval holds the one point (25, 0, 25) / 50.  A scorer that
    # rejects that point, as rounding may at the boundary, moves the winner
    # to row 24, worth 0.9/k more while one step of j is worth 0.1/k: a bound
    # taken from the one-point row would prune row 24 away
    k, const, coeffs, objective, level = 50, 0.0, [1.0, 1.0, 0.0], [-1.0, -0.1, 0.0], 0.5
    constraint_values, objective_values = _affine_scorers(const, coeffs, objective)

    def rejecting(g):
        return np.where(np.all(np.rint(g * k) == [25, 0, 25], axis=1), np.inf,
                        constraint_values(g))
    for scorer in (constraint_values, rejecting):
        want = _full_scan(3, k, scorer, objective_values, level)
        _assert_same_scan(_window_scan(const, coeffs, level, k, objective, scorer,
                                       objective_values), want)
    assert list(np.rint(want[0] * k)) == [24, 1, 25]


def test_row_bound_allows_for_the_padding_on_both_sides():
    # rows as above; the objective now favours the upper end and worsens by
    # 2.5 steps of j per row, so row 0, holding j = 0..25, is the best.  A
    # scorer that rejects row 0's end (0, 25, 25) and accepts row 1 two steps
    # past its end (1, 24, 25), which the padding allows, makes (1, 26, 23)
    # the winner, worth half a step more than row 0's end.  It beats row 0's
    # next point only because the bound adds a step to it, and it is found
    # only because the bound lets row 1 be two steps better than its end
    k, const, coeffs, objective, level = 50, 0.0, [1.0, 1.0, 0.0], [0.15, -0.1, 0.0], 0.5
    _, objective_values = _affine_scorers(const, coeffs, objective)

    def shifted(g):
        i, j, _ = np.rint(g * k).T
        return np.where((i == 0) & (j == 25), np.inf, (i + j - 2 * (i == 1)) / k)
    want = _full_scan(3, k, shifted, objective_values, level)
    _assert_same_scan(_window_scan(const, coeffs, level, k, objective, shifted,
                                   objective_values), want)
    assert list(np.rint(want[0] * k)) == [1, 26, 23]


def test_row_bound_is_skipped_where_a_step_is_below_rounding():
    # near flat along j: one step moves the constraint by 2e-16, and row 24,
    # the best, is feasible only by 0.8e-15 to 6e-15, so rounding may reject
    # the whole row.  Row 23 then wins; a bound taken from row 24 would have
    # pruned it
    k, const, coeffs, objective = 50, 0.0, [1.0, 1e-14, 0.0], [-1.0, -0.1, 0.0]
    level = 0.48 + 6e-15
    constraint_values, objective_values = _affine_scorers(const, coeffs, objective)

    def rejecting(g):
        return np.where(np.rint(g[:, 0] * k) == 24, np.inf, constraint_values(g))
    want = _full_scan(3, k, rejecting, objective_values, level)
    _assert_same_scan(_window_scan(const, coeffs, level, k, objective, rejecting,
                                   objective_values), want)
    assert list(np.rint(want[0] * k)) == [23, 27, 0]


def test_row_bound_keeps_the_rows_of_an_objective_parallel_to_the_boundary():
    rng = np.random.default_rng(5)
    k = 1000
    for _ in range(5):
        # near (2j + i - k) / k <= 0: the boundary crosses every row
        const, level = rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)
        coeffs = np.array([0.0, 1.0, -1.0]) + rng.uniform(-0.2, 0.2, 3)
        # minus the constraint plus a little: nearly constant along the boundary
        objective = -coeffs + 1e-4 * rng.uniform(-1, 1, 3)
        constraint_values, objective_values = _affine_scorers(const, coeffs, objective)
        want = _full_scan(3, k, constraint_values, objective_values, level)
        _assert_same_scan(_window_scan(const, coeffs, level, k, objective, constraint_values,
                                       objective_values), want)
        rows = np.unique(affine_window(const, coeffs, level, k, objective)[:, 0])
        grid = grid_points(3, k)
        feasible_rows = np.unique(grid[constraint_values(grid) <= level, 0])
        assert rows.size >= max(feasible_rows.size // 2, 100)


def test_m2_window_matches_full_scan_at_fine_resolution():
    rng = np.random.default_rng(8)
    k = 10 ** 4
    for _ in range(20):
        const, coeffs, level = rng.uniform(-1, 1), rng.uniform(-1, 1, 2), rng.uniform(-1, 1)
        objective = rng.uniform(-1, 1, 2)
        constraint_values, objective_values = _affine_scorers(const, coeffs, objective)
        _assert_same_scan(_window_scan(const, coeffs, level, k, objective, constraint_values,
                                       objective_values),
                          _full_scan(2, k, constraint_values, objective_values, level))
