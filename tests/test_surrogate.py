"""Loss objects: values, invariants, and the custom-table validator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from npconvex.errors import DomainError
from npconvex.surrogate import by_name, custom, exponential, hinge, logit

GRID = np.linspace(-1.0, 1.0, 2001)


def _check_invariants(s):
    vals = s.eval(GRID)
    assert np.all(np.isfinite(vals))
    # non-decreasing
    assert np.all(np.diff(vals) >= -1e-12)
    # normalized at zero
    assert abs(s.eval(0.0) - 1.0) < 1e-12
    # midpoint convexity on the grid
    mid = s.eval((GRID[:-1] + GRID[1:]) / 2.0)
    assert np.all(mid <= (vals[:-1] + vals[1:]) / 2.0 + 1e-12)
    # Lipschitz constant is honored by finite differences
    slopes = np.diff(vals) / np.diff(GRID)
    assert np.max(np.abs(slopes)) <= s.lipschitz + 1e-9
    assert abs(s.eval(1.0) - s.value_at_one) < 1e-12


def test_hinge_values():
    s = hinge()
    assert s.eval(-1.0) == 0.0
    assert s.eval(0.0) == 1.0
    assert s.eval(1.0) == 2.0
    assert s.eval(0.5) == 1.5
    assert s.lipschitz == 1.0
    assert s.affine_coefficients == (1.0, 1.0)
    _check_invariants(s)


def test_logit_frozen_constants():
    s = logit()
    assert abs(s.lipschitz - 1.0546945859888424) < 1e-15
    assert abs(s.value_at_one - 1.8946361239720116) < 1e-15
    assert abs(s.eval(0.0) - 1.0) < 1e-15
    # log2(1 + e^z) at z = 1
    assert abs(s.eval(1.0) - math.log2(1.0 + math.e)) < 1e-15
    _check_invariants(s)


def test_exponential_values():
    s = exponential()
    assert abs(s.eval(1.0) - math.e) < 1e-15
    assert abs(s.eval(-1.0) - 1.0 / math.e) < 1e-15
    assert s.lipschitz == math.e
    _check_invariants(s)


def test_domain_is_enforced():
    for s in (hinge(), logit(), exponential()):
        with pytest.raises(DomainError):
            s.eval(1.0 + 1e-6)
        with pytest.raises(DomainError):
            s.eval(-1.5)
        with pytest.raises(DomainError):
            s.eval(np.array([0.0, 2.0]))


def test_derivatives_match_finite_differences():
    for s in (hinge(), logit(), exponential()):
        z = np.linspace(-0.9, 0.9, 101)
        h = 1e-6
        approx = (s.eval(z + h) - s.eval(z - h)) / (2 * h)
        assert np.max(np.abs(s.derivative(z) - approx)) < 1e-6


def test_by_name_round_trip():
    for name in ("hinge", "logit", "exponential"):
        assert by_name(name).kind == name
    with pytest.raises(DomainError):
        by_name("quadratic")


def test_custom_accepts_valid_table():
    zs = np.linspace(-1, 1, 201)
    vs = np.maximum(1.0 + zs, 0.0)
    s = custom(zs, vs, lipschitz=1.0)
    assert s.kind == "custom"
    assert abs(s.eval(0.25) - 1.25) < 1e-9
    k = int(np.searchsorted(zs, 0.0, side="right")) - 1
    assert s.derivative(0.0) == (vs[k + 1] - vs[k]) / (zs[k + 1] - zs[k])
    _check_invariants(s)


def test_custom_derivative_is_a_subgradient():
    # slopes 0.6, 1.0, 1.6, 1.6: the right-hand slope at each knot
    zs = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    vs = np.array([0.2, 0.5, 1.0, 1.8, 2.6])
    s = custom(zs, vs, lipschitz=1.6)
    assert list(s.derivative(zs)) == pytest.approx([0.6, 1.0, 1.6, 1.6, 1.6])
    assert s.derivative(-0.75) == pytest.approx(0.6)
    # phi(y) >= phi(z) + phi'(z) (y - z): the certificate's linearization
    y, z = GRID[None, :], GRID[:, None]
    gap = s.eval(y) - s.eval(z) - s.derivative(z) * (y - z)
    assert gap.min() >= -1e-12


def test_custom_rejects_bad_tables():
    zs = np.linspace(-1, 1, 51)
    # not normalized at zero
    with pytest.raises(DomainError):
        custom(zs, np.maximum(0.5 + zs, 0.0), lipschitz=1.0)
    # decreasing somewhere
    vs = np.maximum(1.0 + zs, 0.0).copy()
    vs[10] = vs[9] + 0.5
    with pytest.raises(DomainError):
        custom(zs, vs, lipschitz=1.0)
    # non-convex kink
    vs = 1.0 + np.abs(zs) * (1.0 - np.abs(zs))
    with pytest.raises(DomainError):
        custom(zs, vs, lipschitz=2.0)
    # grid not covering [-1, 1]
    with pytest.raises(DomainError):
        custom(np.linspace(-0.5, 1, 31), 1.0 + np.linspace(-0.5, 1, 31),
               lipschitz=1.0)


def test_custom_domain_edge():
    zs = np.linspace(-1, 1, 201)
    s = custom(zs, 1.0 + zs, lipschitz=1.0)
    # a hair beyond one is tolerated, more is not
    s.eval(1.0 + 1e-13)
    with pytest.raises(DomainError):
        s.eval(1.0 + 1e-6)
