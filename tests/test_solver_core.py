"""The exact affine route of the simplex-program engine."""

from __future__ import annotations

import numpy as np
import pytest

from npconvex import _solver_core as core
from npconvex.errors import Infeasible
from npconvex.surrogate import hinge


def _loop_affine_solve(objective, constraint, level, m):
    """The vertex-pair enumeration written as the plain O(M^2) double loop."""
    c = constraint.coeffs
    b = objective.coeffs
    r = level - constraint.const
    eye = np.eye(m)
    best_lam, best_val = None, np.inf
    for j in range(m):
        if c[j] <= r and b[j] < best_val:
            best_val = float(b[j])
            best_lam = eye[j]
    for j in range(m):
        if c[j] > r:
            continue
        for k in range(m):
            if c[k] <= r:
                continue
            theta = (c[k] - r) / (c[k] - c[j])
            val = float(theta * b[j] + (1.0 - theta) * b[k])
            if val < best_val:
                best_val = val
                lam = np.zeros(m)
                lam[j] = theta
                lam[k] = 1.0 - theta
                best_lam = lam
    return best_lam, objective.const + best_val


def _instance(rng, m, tied):
    if tied:  # few distinct values: many equal vertices and equal mixtures
        b = rng.integers(-3, 4, m) / 4.0
        c = rng.integers(-3, 4, m) / 4.0
    else:
        b = rng.uniform(-1, 1, m)
        c = rng.uniform(-1, 1, m)
    objective = core.AffineForm(const=1.0, coeffs=b)
    constraint = core.AffineForm(const=1.0, coeffs=c)
    level = 1.0 + float(rng.choice([rng.uniform(c.min(), c.max()), c[rng.integers(m)]]))
    return objective, constraint, level


def _assert_same_as_loop(rng, m, tied):
    objective, constraint, level = _instance(rng, m, tied)
    res = core._affine_solve(objective, constraint, level, m, 1e-8)
    lam, val = _loop_affine_solve(objective, constraint, level, m)
    assert res.lam.tobytes() == lam.tobytes()
    assert res.objective_value == val
    assert res.constraint_value == constraint.value(lam)
    assert 0.0 <= res.gap <= 1e-12


@pytest.mark.parametrize("tied", [False, True])
def test_affine_solve_is_bitwise_the_double_loop(tied):
    rng = np.random.default_rng(41 + tied)
    for trial in range(300):
        _assert_same_as_loop(rng, 1 + trial % 12, tied)
    for m in (40, 97):
        for _ in range(5):
            _assert_same_as_loop(rng, m, tied)


def test_affine_solve_blocks_do_not_change_the_answer(monkeypatch):
    # blocks of a few rows each: ties must still go to the first pair overall
    monkeypatch.setattr(core, "_PAIR_BLOCK", 7)
    rng = np.random.default_rng(5)
    for trial in range(200):
        _assert_same_as_loop(rng, 2 + trial % 15, tied=trial % 2 == 0)


def test_affine_solve_infeasible_and_boundary():
    objective = core.AffineForm(const=1.0, coeffs=np.array([0.0, -1.0]))
    constraint = core.AffineForm(const=1.0, coeffs=np.array([0.5, 0.25]))
    with pytest.raises(Infeasible):
        core._affine_solve(objective, constraint, 1.2, 2, 1e-8)
    res = core._affine_solve(objective, constraint, 1.25 - 5e-9, 2, 1e-8)
    assert list(res.lam) == [0.0, 1.0]


def test_affine_risk_form_is_the_risk_form_branch():
    rng = np.random.default_rng(9)
    H = rng.choice([-1.0, 1.0], size=(50, 4))
    w = rng.uniform(size=50)
    w /= w.sum()
    for sign in (-1.0, 1.0):
        full = core.risk_form(H, hinge(), sign, weights=w)
        direct = core.affine_risk_form(w @ H, hinge(), sign)
        assert full.const == direct.const
        assert full.coeffs.tobytes() == direct.coeffs.tobytes()
