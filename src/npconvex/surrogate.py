"""Convex surrogate losses on [-1, 1].

A surrogate is a non-decreasing, continuous, convex function phi with
phi(0) = 1.  Together with its Lipschitz constant L and the value
phi(1) it feeds every concentration bound in the package.  Built-ins:

    hinge        phi(z) = max(1 + z, 0)        L = 1        phi(1) = 2
    logit        phi(z) = log2(1 + e^z)        L = e/((1+e) ln 2)
    exponential  phi(z) = e^z                  L = e        phi(1) = e

The hinge loss coincides with the affine map z -> 1 + z on the whole
domain [-1, 1]; `affine_coefficients` exposes that fact so risk
functionals linear in the mixing weights can be solved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, check_real

DOMAIN_TOL = 1e-12
_LN2 = math.log(2.0)

#: tight Lipschitz constant of log2(1 + e^z) on [-1, 1], attained at z = 1
LOGIT_LIPSCHITZ = math.e / ((1.0 + math.e) * _LN2)
#: log2(1 + e)
LOGIT_VALUE_AT_ONE = math.log1p(math.e) / _LN2


def _apply(f: Callable[[np.ndarray], np.ndarray], z):
    """f(z) for a scalar or array z in [-1, 1]; DomainError outside it."""
    arr = np.asarray(z, dtype=float)
    if arr.size and float(np.max(np.abs(arr))) > 1.0 + DOMAIN_TOL:
        bad = float(arr.flat[int(np.argmax(np.abs(arr)))])
        raise DomainError(f"surrogate argument {bad!r} outside [-1, 1]")
    out = f(arr)
    return float(out) if np.ndim(z) == 0 else out


@dataclass(frozen=True)
class Surrogate:
    """Immutable loss object; free to share across threads."""

    kind: str
    lipschitz: float
    value_at_one: float
    _fn: Callable[[np.ndarray], np.ndarray]
    _deriv: Callable[[np.ndarray], np.ndarray]
    #: (a, b) with phi(z) = a + b*z on all of [-1, 1], or None
    affine_coefficients: Optional[Tuple[float, float]] = None

    def eval(self, z):
        """phi(z) for a scalar or array z; DomainError outside [-1, 1]."""
        return _apply(self._fn, z)

    def derivative(self, z):
        """phi'(z); for a tabulated loss, the slope of the table segment
        containing z (the right-hand one at a knot), a subgradient."""
        return _apply(self._deriv, z)


def hinge() -> Surrogate:
    return Surrogate(
        kind="hinge",
        lipschitz=1.0,
        value_at_one=2.0,
        _fn=lambda z: np.maximum(1.0 + z, 0.0),
        _deriv=lambda z: np.ones_like(z),
        affine_coefficients=(1.0, 1.0),
    )


def _logit_deriv(z: np.ndarray) -> np.ndarray:
    e = np.exp(z)
    return e / ((1.0 + e) * _LN2)


def logit() -> Surrogate:
    return Surrogate(
        kind="logit",
        lipschitz=LOGIT_LIPSCHITZ,
        value_at_one=LOGIT_VALUE_AT_ONE,
        _fn=lambda z: np.log1p(np.exp(z)) / _LN2,
        _deriv=_logit_deriv,
    )


def exponential() -> Surrogate:
    return Surrogate(
        kind="exponential",
        lipschitz=math.e,
        value_at_one=math.e,
        _fn=np.exp,
        _deriv=np.exp,
    )


CUSTOM_TOL = 1e-9


def custom(grid, values, lipschitz: float) -> Surrogate:
    """Tabulated surrogate: piecewise-linear interpolation over `grid`.

    The table must witness every defining property up to 1e-9: coverage
    of [-1, 1], phi(0) = 1, monotonicity, convexity (non-decreasing
    slopes), the declared Lipschitz constant, nonnegativity, and
    phi >= 1 at nonnegative arguments.  Violators are rejected.
    """
    zs = np.asarray(grid, dtype=float)
    vs = np.asarray(values, dtype=float)
    if zs.ndim != 1 or zs.shape != vs.shape or zs.size < 2:
        raise DomainError("custom surrogate needs matching 1-D grid and values, length >= 2")
    if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(vs))):
        raise DomainError("custom surrogate table contains non-finite entries")
    if np.any(np.diff(zs) <= 0):
        raise DomainError("custom surrogate grid must be strictly increasing")
    if zs[0] > -1.0 + DOMAIN_TOL or zs[-1] < 1.0 - DOMAIN_TOL:
        raise DomainError("custom surrogate grid must cover [-1, 1]")
    check_real(lipschitz, "declared Lipschitz constant", 0, math.inf)

    slopes = np.diff(vs) / np.diff(zs)
    at_zero = float(np.interp(0.0, zs, vs))
    if abs(at_zero - 1.0) > CUSTOM_TOL:
        raise DomainError(f"custom surrogate has phi(0) = {at_zero}, expected 1")
    if np.any(np.diff(vs) < -CUSTOM_TOL):
        raise DomainError("custom surrogate is not non-decreasing")
    if np.any(np.diff(slopes) < -CUSTOM_TOL):
        raise DomainError("custom surrogate is not convex (slopes decrease)")
    if np.any(np.abs(slopes) > lipschitz + CUSTOM_TOL):
        raise DomainError("custom surrogate violates its declared Lipschitz constant")
    if np.any(vs < -CUSTOM_TOL):
        raise DomainError("custom surrogate takes negative values")
    nonneg = zs >= -CUSTOM_TOL
    if np.any(vs[nonneg] < 1.0 - CUSTOM_TOL):
        raise DomainError("custom surrogate drops below 1 at a nonnegative argument")

    zs = zs.copy()
    vs = vs.copy()
    for arr in (zs, vs, slopes):
        arr.setflags(write=False)

    def segment_slope(z):
        return slopes[np.clip(np.searchsorted(zs, z, side="right") - 1, 0, slopes.size - 1)]

    return Surrogate(
        kind="custom",
        lipschitz=float(lipschitz),
        value_at_one=float(np.interp(1.0, zs, vs)),
        _fn=lambda z: np.interp(z, zs, vs),
        _deriv=segment_slope,
    )


_BY_NAME = {"hinge": hinge, "logit": logit, "exp": exponential, "exponential": exponential}


def by_name(name: str) -> Surrogate:
    """Surrogate from its CLI/config name: "hinge" | "logit" | "exp"."""
    try:
        factory = _BY_NAME[name.strip().lower()]
    except (KeyError, AttributeError):
        raise DomainError(f"unknown surrogate {name!r}; expected hinge, logit, or exp") from None
    return factory()
