"""Shared engine for convex programs over the probability simplex.

Both production programs have the same shape: minimize a convex
objective over the flat simplex subject to at most one convex inequality
constraint.  Two routes are used:

* When objective and constraint are both affine in the weights (hinge
  loss risks are), the feasible region is a polytope whose vertices are
  simplex vertices plus constraint-tight points on simplex edges, and
  the optimum is found exactly by enumerating them: O(M^2) work in
  numpy broadcasts over vertex pairs, no iteration, bit-for-bit
  deterministic.

* Otherwise sequential quadratic programming (SLSQP) runs from a fixed
  list of starting points (uniform center, the constraint minimizer,
  the best feasible vertex), followed by a terminal feasibility polish:
  a bisection along the segment toward the constraint minimizer, which
  by convexity restores the constraint to within feas_tol without
  leaving the simplex.

Everything here is deterministic given identical inputs; no randomness
is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError, Infeasible
from .risk import phi_risk_from_matrix
from .surrogate import Surrogate


@dataclass(frozen=True)
class AffineForm:
    """value(lam) = const + coeffs @ lam."""

    const: float
    coeffs: np.ndarray

    def value(self, lam: np.ndarray) -> float:
        return float(self.const + self.coeffs @ lam)

    def grad(self, lam: np.ndarray) -> np.ndarray:
        return self.coeffs


@dataclass(frozen=True)
class SmoothForm:
    fn: Callable[[np.ndarray], float]
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def value(self, lam: np.ndarray) -> float:
        return float(self.fn(lam))

    def grad(self, lam: np.ndarray):
        return None if self.grad_fn is None else self.grad_fn(lam)


Form = Union[AffineForm, SmoothForm]


def affine_risk_form(means: np.ndarray, s: Surrogate, sign: float) -> AffineForm:
    """The risk lam -> mean of phi(sign * H @ lam) for an affine surrogate.

    With phi(z) = a + b z on [-1, 1] and margins of simplex mixtures
    inside [-1, 1], the risk is exactly a + (b * sign) * means @ lam,
    where `means` are the (weighted) column means of H.
    """
    a, b = s.affine_coefficients
    return AffineForm(const=a, coeffs=(b * sign) * np.asarray(means, dtype=float))


def risk_form(H: np.ndarray, s: Surrogate, sign: float,
              weights: Optional[np.ndarray] = None) -> Form:
    """The map lam -> weighted mean of phi(sign * H @ lam) as a Form.

    Affine surrogates collapse to an exact AffineForm (affine_risk_form).
    Smooth forms evaluate at the cleaned mixture _clean_simplex(lam):
    SLSQP iterates leave the simplex by float dust, and the cleaned
    mixture keeps every margin inside phi's domain [-1, 1].
    """
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=float)
    if s.affine_coefficients is not None:
        return affine_risk_form(w @ H, s, sign)

    def fn(lam: np.ndarray) -> float:
        return phi_risk_from_matrix(H, _clean_simplex(lam), s, sign,
                                    weights=None if weights is None else w)

    def grad_fn(lam: np.ndarray) -> np.ndarray:
        margins = sign * (H @ _clean_simplex(lam))
        d = s.derivative(margins)
        if d is None:
            return None
        return sign * (H.T @ (w * d))

    has_grad = s.derivative(0.0) is not None
    return SmoothForm(fn=fn, grad_fn=grad_fn if has_grad else None)


@dataclass
class SolveResult:
    lam: np.ndarray
    objective_value: float
    constraint_value: Optional[float]
    iterations: int
    status: str  # "optimal" | "max_iters_exceeded"


def _clean_simplex(lam: np.ndarray) -> np.ndarray:
    out = np.maximum(np.asarray(lam, dtype=float), 0.0)
    total = out.sum()
    if total <= 0.0:
        out = np.full(out.size, 1.0 / out.size)
    else:
        out = out / total
    return out


def _slsqp(form: Form, m: int, start: np.ndarray, max_iters: int,
           constraint: Optional[Form] = None, level: float = 0.0):
    cons = [{"type": "eq", "fun": lambda l: float(np.sum(l) - 1.0),
             "jac": lambda l: np.ones(m)}]
    if constraint is not None:
        def cfun(l):
            return level - constraint.value(l)

        entry = {"type": "ineq", "fun": cfun}
        if isinstance(constraint, AffineForm) or constraint.grad(start) is not None:
            entry["jac"] = lambda l: -np.asarray(constraint.grad(l), dtype=float)
        cons.append(entry)
    kwargs = {}
    g0 = form.grad(start)
    if g0 is not None:
        kwargs["jac"] = lambda l: np.asarray(form.grad(l), dtype=float)
    res = minimize(
        lambda l: form.value(l),
        x0=start,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * m,
        constraints=cons,
        options={"maxiter": max_iters, "ftol": 1e-12},
        **kwargs,
    )
    return _clean_simplex(res.x), int(res.nit), bool(res.success)


def minimize_simplex(m: int, form: Form, max_iters: int = 500):
    """Global minimum of a convex Form over the simplex.

    Returns (lam, value, iterations).  Affine forms are minimized
    exactly at the first best vertex; smooth forms run SLSQP from the
    center and the best vertices.
    """
    if m < 1:
        raise DomainError("simplex dimension must be >= 1")
    eye = np.eye(m)
    if isinstance(form, AffineForm):
        j = int(np.argmin(form.coeffs))  # argmin takes the first on ties
        lam = eye[j]
        return lam, form.value(lam), 0
    vertex_vals = np.array([form.value(eye[j]) for j in range(m)])
    order = np.argsort(vertex_vals, kind="stable")
    starts = [np.full(m, 1.0 / m)] + [eye[j] for j in order[: min(3, m)]]
    best = None
    iters = 0
    for s0 in starts:
        lam, nit, _ = _slsqp(form, m, s0, max_iters)
        iters += nit
        val = form.value(lam)
        if best is None or val < best[1]:
            best = (lam, val)
    return best[0], best[1], iters


#: vertex pairs scored per block in _affine_solve (bounds its scratch memory)
_PAIR_BLOCK = 1 << 20


def _first_min(vals: np.ndarray):
    """(index, value) of the first minimum; NaN entries never win."""
    vals = np.where(np.isnan(vals), np.inf, vals)
    i = int(np.argmin(vals))
    return i, float(vals[i])


def _affine_solve(objective: AffineForm, constraint: AffineForm, level: float,
                  m: int, feas_tol: float) -> SolveResult:
    c = constraint.coeffs
    b = objective.coeffs
    r = level - constraint.const
    eye = np.eye(m)

    min_c = float(np.min(c))
    if min_c > r:
        j = int(np.argmin(c))
        if min_c <= r + feas_tol:
            lam = eye[j]
            return SolveResult(lam, objective.value(lam), constraint.value(lam), 0, "optimal")
        raise Infeasible(
            f"constraint minimum {constraint.const + min_c} exceeds level {level} + feas_tol")

    # best feasible vertex, then every tight mixture theta*e_j + (1-theta)*e_k
    # of a feasible j and an infeasible k; ties keep the first in (j, k)
    # row-major order, and a mixture must beat the vertex strictly
    best_lam, best_val = None, np.inf
    feasible = c <= r
    j, val = _first_min(np.where(feasible, b, np.inf))
    if val < best_val:
        best_val, best_lam = val, eye[j]
    inside, outside = np.flatnonzero(feasible), np.flatnonzero(c > r)
    if outside.size:
        c_out, b_out = c[outside], b[outside]
        step = max(1, _PAIR_BLOCK // outside.size)
        for lo in range(0, inside.size, step):
            rows = inside[lo:lo + step, None]
            theta = (c_out - r) / (c_out - c[rows])
            vals = theta * b[rows] + (1.0 - theta) * b_out
            p, val = _first_min(vals.ravel())
            if val < best_val:
                jj, kk = divmod(p, outside.size)
                best_val = val
                best_lam = np.zeros(m)
                best_lam[rows[jj, 0]] = theta[jj, kk]
                best_lam[outside[kk]] = 1.0 - theta[jj, kk]
    return SolveResult(best_lam, objective.const + best_val,
                       constraint.value(best_lam), 0, "optimal")


def _polish_feasibility(lam: np.ndarray, lam_feas: np.ndarray, constraint: Form,
                        level: float, feas_tol: float) -> np.ndarray:
    """Smallest step along lam -> lam_feas restoring constraint <= level."""
    if constraint.value(lam) <= level + feas_tol * 0.5:
        return lam
    lo, hi = 0.0, 1.0  # invariant: value at hi is feasible
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        cand = (1.0 - mid) * lam + mid * lam_feas
        if constraint.value(cand) <= level:
            hi = mid
        else:
            lo = mid
    return (1.0 - hi) * lam + hi * lam_feas


def solve_simplex_program(m: int, objective: Form, constraint: Optional[Form] = None,
                          level: float = 0.0, *, feas_tol: float = 1e-8,
                          max_iters: int = 500) -> SolveResult:
    """Minimize objective over the simplex, optionally s.t. constraint <= level.

    Raises Infeasible when the constraint minimum exceeds level + feas_tol.
    A non-converged iterative solve returns its best feasible iterate with
    status "max_iters_exceeded".
    """
    if m < 1:
        raise DomainError("simplex dimension must be >= 1")
    if constraint is None:
        lam, val, iters = minimize_simplex(m, objective, max_iters)
        return SolveResult(lam, val, None, iters, "optimal")

    if isinstance(objective, AffineForm) and isinstance(constraint, AffineForm):
        return _affine_solve(objective, constraint, level, m, feas_tol)

    lam_feas, min_con, probe_iters = minimize_simplex(m, constraint, max_iters)
    if min_con > level + feas_tol:
        raise Infeasible(f"constraint minimum {min_con} exceeds level {level} + feas_tol")

    eye = np.eye(m)
    starts = [np.full(m, 1.0 / m), lam_feas]
    feas_vertices = [j for j in range(m) if constraint.value(eye[j]) <= level]
    if feas_vertices:
        vals = [objective.value(eye[j]) for j in feas_vertices]
        starts.append(eye[feas_vertices[int(np.argmin(vals))]])

    iters = probe_iters
    best = None  # (value, lam, converged)
    for s0 in starts:
        lam, nit, ok = _slsqp(objective, m, s0, max_iters, constraint=constraint, level=level)
        iters += nit
        lam = _polish_feasibility(lam, lam_feas, constraint, level, feas_tol)
        cval = constraint.value(lam)
        if cval > level + feas_tol:
            continue
        val = objective.value(lam)
        if best is None or val < best[0]:
            best = (val, lam, ok)
    if best is None:
        # every start failed to reach feasibility; fall back to the minimizer
        lam = lam_feas
        return SolveResult(lam, objective.value(lam), constraint.value(lam),
                           iters, "max_iters_exceeded")
    val, lam, ok = best
    status = "optimal" if ok else "max_iters_exceeded"
    return SolveResult(lam, val, constraint.value(lam), iters, status)
