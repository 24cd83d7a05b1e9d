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


def _full_scan(k, constraint_values, objective_values, level):
    with pytest.MonkeyPatch.context() as mp:  # many chunks, many cross-chunk ties
        mp.setattr(_grids, "CHUNK_ROWS", 4096)
        return argmin_feasible(iter_grid_chunks(3, k), constraint_values,
                               objective_values, [level])[0]


def _assert_window_matches(scan_lam, scan_val, oracle_lam, oracle_val, flat):
    assert abs(oracle_val - scan_val) <= 1e-12
    if not flat:
        np.testing.assert_array_equal(oracle_lam, scan_lam)


@pytest.mark.parametrize("k", [2, 3, 5, 10, 50, 100, 400, 500, 1000])
def test_np_affine_window_matches_full_scan(k):
    rng = np.random.default_rng(k)
    s = hinge()
    for _ in range(3):
        bases = [DecisionStump(0, 0.995, -1), DecisionStump(0, float(rng.uniform(0.2, 0.9)), 1),
                 DecisionStump(0, float(rng.uniform(0.2, 0.9)), -1)]
        d = BaseDictionary(bases, dim=1)
        sample = Sample(rng.uniform(0, 1, (200, 1)), rng.uniform(0.1, 1.0, (200, 1)))
        cfg = NPConfig(alpha=float(rng.uniform(0.9, 0.95)), delta=0.1, surrogate=s)
        H_minus = d.evaluate_matrix(sample.negatives)
        H_plus = d.evaluate_matrix(sample.positives)
        level = alpha_kappa(cfg.alpha, kappa(s.lipschitz, 3, cfg.delta), 200)
        lam, val = _full_scan(
            k, lambda g: np.mean(s.eval(H_minus @ g.T), axis=0),
            lambda g: np.mean(s.eval(-(H_plus @ g.T)), axis=0), level)
        sol = grid_oracle_np(sample, d, cfg, resolution=1.0 / k)
        # stump columns are +-1, so their sums are exact
        flat = H_plus[:, 1].sum() == H_plus[:, 2].sum()
        _assert_window_matches(lam, val, sol.weights.lam, sol.r_plus_phi, flat)


@pytest.mark.parametrize("k", [2, 3, 5, 10, 50, 100, 400, 500, 1000])
def test_ccp_affine_window_matches_full_scan(k):
    rng = np.random.default_rng(k + 1)
    a, b = hinge().affine_coefficients
    n = 2000
    scanned = 0
    for trial in range(8):
        G = np.column_stack([-np.ones(n), rng.uniform(-1.0, 1.0, n),
                             rng.uniform(-1.0, 1.0, n)])
        c = rng.uniform(-1.0, 1.0, 3)
        if trial == 0:
            c[2] = c[1]  # flat along j: only the value must agree
        inst = CCPInstance(alpha=float(rng.uniform(0.3, 0.45)), delta=0.1,
                           surrogate=hinge(), g_matrix=G, **linear_objective(c))
        level = alpha_kappa(inst.alpha, kappa(1.0, 3, inst.delta), n)
        g_mean = G.mean(axis=0)
        lam, val = _full_scan(k, lambda g: a + b * (g @ g_mean), lambda g: g @ c, level)
        if lam is None:
            with pytest.raises(Infeasible):
                grid_oracle_ccp(inst, resolution=1.0 / k)
            continue
        sol = grid_oracle_ccp(inst, resolution=1.0 / k)
        _assert_window_matches(lam, val, sol.weights.lam, sol.objective_value,
                               c[1] == c[2])
        scanned += 1
    assert scanned >= 6


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
    for const, coeffs, level in cases:
        pts = affine_window(const, np.array(coeffs), level, k)
        ij = np.rint(pts[:, :2] * k).astype(np.int64)
        np.testing.assert_array_equal(ij / k, pts[:, :2])  # on the grid
        assert np.all(ij >= 0) and np.all(ij.sum(axis=1) <= k)
        np.testing.assert_array_equal(pts[:, 2], (k - ij.sum(axis=1)) / k)
        step = np.diff(ij, axis=0)
        assert np.all((step[:, 0] > 0) | ((step[:, 0] == 0) & (step[:, 1] > 0)))
        # each end of a row's feasible interval is a candidate, unless the
        # row is so near flat that rounding outweighs the two-step padding
        if k <= 401 and not 0.0 < abs(coeffs[1] - coeffs[2]) < 1e-12:
            grid = grid_points(3, k)
            feasible = grid[const + grid @ np.array(coeffs) <= level]
            rows = np.rint(feasible[:, 0] * k)
            ends = np.flatnonzero(np.diff(rows, prepend=-1, append=k + 1))
            want = {tuple(p) for p in feasible[np.r_[ends[:-1], ends[1:] - 1]]}
            assert want <= {tuple(p) for p in pts}
    assert affine_window(0.0, np.array([0.3, 0.9, -0.4]), -1.0, k).shape == (0, 3)
