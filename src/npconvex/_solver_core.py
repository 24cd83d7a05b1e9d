"""Shared engine for convex programs over the probability simplex.

Both production programs have the same shape: minimize a convex
objective f over the flat simplex subject to at most one convex
inequality constraint g <= level.  Every solve carries a certificate.
At any simplex point lam and any mu >= 0, convexity of f and g gives
the Lagrangian Frank-Wolfe lower bound on the optimum

    f(lam) + mu (g(lam) - level) + min_j (grad f + mu grad g)_j
           - (grad f + mu grad g) . lam,

and lagrangian_bound maximizes it over mu (mu = 0 without a
constraint).  By LP duality that maximum is the minimum of the program
linearized at lam, one linear constraint over the simplex, which _lp_min
solves exactly.  SolveResult reports the best bound found as lower_bound
and gap = objective_value - lower_bound, clipped at 0.  Two routes:

* When objective and constraint are both affine in the weights (hinge
  loss risks are), the program is that LP itself: _lp_min enumerates the
  vertices of the feasible polytope, simplex vertices plus
  constraint-tight points on simplex edges, in O(M^2) numpy broadcasts
  over vertex pairs; no iteration, bit-for-bit deterministic.  The
  optimum is exact and certifies itself: lower_bound is its value.

* Otherwise sequential quadratic programming (SLSQP) runs from a fixed
  list of starting points in one loop, _certified_starts, which stops at
  the first start whose best value lies within GAP_TOL of the best lower
  bound.  The first start is the uniform center.  The constraint probe
  (minimize_simplex on g) runs only when a start ends infeasible, where
  it decides Infeasible, or when the first start does not certify,
  because its minimizer is the second start; the best feasible vertex is
  the third.  The probe stops early only at a start that certifies and
  also settles the decision: its value is within level + FEAS_TOL, or
  its lower bound lies above that.  A start ending above the level by
  more than FEAS_TOL / 2 is polished: a bisection along the segment
  toward the probe's minimizer, which by convexity restores the
  constraint to within FEAS_TOL without leaving the simplex.  When no
  start certifies, the best start by value wins.  SLSQP gets the lower
  bounds lam >= 0 only: with sum(lam) = 1 an upper bound lam <= 1 can
  never bind, and each one would add a row to every least-squares
  subproblem.  A smooth form's bound is lowered by a rounding allowance
  (_rounding_slack) so that rounding cannot lift it above the optimum.

SolveResult.status reads the gap alone, never SLSQP's success flag:
"optimal" when it is at most GAP_TOL, "uncertified" otherwise.

GAP_TOL, FEAS_TOL and MAX_ITERS are fixed constants, not settings,
read where they are used.  GAP_TOL sits far above the gaps SLSQP
reaches (about 1e-9 to 1e-6), FEAS_TOL is rounding-level slack, and
both lie far below the statistical margin kappa/sqrt(n) that the
constraint level already gives up.

scipy is imported on the first SLSQP solve only (minimize below): the
affine route, the grid oracles and everything else never load it.

Everything here is deterministic given identical inputs; no randomness
is consumed.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, Infeasible
from .risk import phi_risk_from_margins
from .surrogate import Surrogate

#: a start whose certified gap is at most this ends the multi-start loop
GAP_TOL = 1e-5
#: slack allowed above the constraint level before a program is Infeasible
FEAS_TOL = 1e-8
#: iteration cap of one SLSQP run
MAX_ITERS = 500


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
    """A convex value oracle with a (sub)gradient oracle."""

    fn: Callable[[np.ndarray], float]
    grad_fn: Callable[[np.ndarray], np.ndarray]

    def value(self, lam: np.ndarray) -> float:
        return float(self.fn(lam))

    def grad(self, lam: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad_fn(lam), dtype=float)


Form = Union[AffineForm, SmoothForm]


def affine_risk_form(means: np.ndarray, s: Surrogate, sign: float) -> AffineForm:
    """The risk lam -> mean of phi(sign * H @ lam) for an affine surrogate.

    With phi(z) = a + b z on [-1, 1] and margins of simplex mixtures
    inside [-1, 1], the risk is exactly a + (b * sign) * means @ lam,
    where `means` are the (weighted) column means of H.
    """
    a, b = s.affine_coefficients
    return AffineForm(const=a, coeffs=(b * sign) * np.asarray(means, dtype=float))


def risk_form(H, s: Surrogate, sign: float,
              weights: Optional[np.ndarray] = None) -> Form:
    """The map lam -> weighted mean of phi(sign * H @ lam) as a Form.

    H is an (n, M) matrix, or a linear operator with shape, matvec(lam)
    = H @ lam and rmatvec(v) = H.T @ v, such as BaseDictionary.operator.
    `weights` (n of them, summing to 1) default to uniform; the NP forms
    pass the cell weights of BaseDictionary.risk_operator.
    Affine surrogates collapse to an exact AffineForm (affine_risk_form).
    Smooth forms evaluate at the cleaned mixture _clean_simplex(lam):
    SLSQP iterates leave the simplex by float dust, and the cleaned
    mixture keeps every margin inside phi's domain [-1, 1].  Value and
    gradient at one cleaned mixture share one product H @ lam: the form
    keeps the margins of the last mixture it saw (one n-vector).
    """
    if hasattr(H, "rmatvec"):
        matvec, rmatvec = H.matvec, H.rmatvec
    else:
        H = np.asarray(H, dtype=float)
        matvec, rmatvec = (lambda lam: H @ lam), (lambda v: H.T @ v)
    n = H.shape[0]
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=float)
    if s.affine_coefficients is not None:
        return affine_risk_form(rmatvec(w), s, sign)

    last = [None]  # (cleaned lam bytes, margins), swapped whole

    def margins(lam: np.ndarray) -> np.ndarray:
        lam = _clean_simplex(lam)
        key = lam.tobytes()
        hit = last[0]
        if hit is None or hit[0] != key:
            hit = (key, sign * matvec(lam))
            last[0] = hit
        return hit[1]

    def fn(lam: np.ndarray) -> float:
        return phi_risk_from_margins(margins(lam), s,
                                     weights=None if weights is None else w)

    def grad_fn(lam: np.ndarray) -> np.ndarray:
        return sign * rmatvec(w * s.derivative(margins(lam)))

    return SmoothForm(fn=fn, grad_fn=grad_fn)


@dataclass
class SolveResult:
    lam: np.ndarray
    objective_value: float
    constraint_value: Optional[float]
    iterations: int
    lower_bound: float  # certified lower bound on the optimum

    @property
    def gap(self) -> float:
        """objective_value - lower_bound, clipped at 0 (rounding can cross)."""
        return max(self.objective_value - self.lower_bound, 0.0)

    @property
    def status(self) -> str:
        """"optimal" when the certificate closes the gap, else "uncertified"."""
        return "optimal" if self.gap <= GAP_TOL else "uncertified"


def _clean_simplex(lam: np.ndarray) -> np.ndarray:
    out = np.maximum(np.asarray(lam, dtype=float), 0.0)
    total = out.sum()
    if total <= 0.0:
        out = np.full(out.size, 1.0 / out.size)
    else:
        out = out / total
    return out


#: rounding allowance of a smooth line per unit of its scale (_rounding_slack)
_ROUNDING_SLACK = 16.0 * np.finfo(float).eps


def _rounding_slack(form: Form, lam: np.ndarray, value: float, grad: np.ndarray) -> float:
    """How far rounding may lift form's line at lam: 0 for an AffineForm.

    For a SmoothForm, 16 eps times the scale |f(lam)| + |grad f| . |lam|
    (entrywise absolute values).  The margins, the means of phi and phi',
    the dot product and the additions forming the line each round by a
    few u = eps / 2 of that scale, and make f convex only up to such
    errors: 32 u budgets about six u for each of these five steps.  Over
    288 unconstrained logit and exponential programs (5000 to 20000 rows,
    7 to 101 bases) the unlowered bound passed the best vertex by at most
    1.5 eps times the scale.  Margins lie in [-1, 1], so the scale is at most phi(1) +
    Lip(phi) and the slack stays eight orders of magnitude under GAP_TOL.
    """
    if isinstance(form, AffineForm):
        return 0.0
    return _ROUNDING_SLACK * (abs(value) + float(np.abs(grad) @ np.abs(lam)))


def lagrangian_bound(lam: np.ndarray, objective: Form, constraint: Optional[Form] = None,
                     level: float = 0.0) -> float:
    """Lower bound on min objective over the simplex s.t. constraint <= level.

    Linearizing f and g at lam turns the Lagrangian bound into
    max over mu >= 0 of min_j (c_j + mu d_j), with one line per vertex:
    c = f(lam) + grad f - grad f . lam and d = g(lam) - level + grad g
    - grad g . lam.  By LP duality that maximum is the minimum of c . x
    over the simplex s.t. d . x <= 0, which _lp_min solves exactly; it is
    +inf when every d_j > 0, where the linearized program is infeasible.
    A smooth form's lines are lowered by its _rounding_slack, so rounding
    never lifts the bound above the optimum; affine lines stay exact.
    """
    grad = objective.grad(lam)
    value = objective.value(lam)
    c = grad + (value - grad @ lam)
    slack = _rounding_slack(objective, lam, value, grad)
    if constraint is None:
        return float(np.min(c)) - slack
    con_grad = constraint.grad(lam)
    con_value = constraint.value(lam)
    d = con_grad + (con_value - level - con_grad @ lam)
    d = d - _rounding_slack(constraint, lam, con_value, con_grad)
    if np.isnan(c).any() or np.isnan(d).any():
        return -np.inf  # a NaN linearization certifies nothing
    if np.min(d) > 0.0:
        return np.inf
    return _lp_min(c, d, 0.0)[1] - slack


class _OneBlasThread:
    """Runs SLSQP on one thread of scipy's bundled OpenBLAS, whose rounding
    follows its thread count: the results then do not depend on it.

    OpenBLAS's openblas_set_num_threads_local returns the previous count,
    but in scipy's pthreads build it sets the process-wide one.  So calls
    running at once on the harness's threads share one pin under a lock:
    the first to enter sets one thread, and the last to leave restores the
    count it found.  The symbol is resolved on the first entry, with
    ctypes, in the libscipy_openblas*.so of the scipy.libs directory next
    to the scipy package; without it the count is left alone.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0
        self._previous = None
        self._setter = None  # False once resolution has failed

    def _resolve(self):
        import scipy
        libs = Path(scipy.__file__).parent.parent / "scipy.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so")):
            try:
                return ctypes.CDLL(str(path)).openblas_set_num_threads_local
            except (OSError, AttributeError):
                continue
        return False

    def __enter__(self):
        with self._lock:
            if self._setter is None:
                self._setter = self._resolve()
            if self._setter:
                if self._active == 0:
                    self._previous = self._setter(1)
                self._active += 1

    def __exit__(self, *exc):
        with self._lock:
            if self._setter:
                self._active -= 1
                if self._active == 0:
                    self._setter(self._previous)


_ONE_BLAS_THREAD = _OneBlasThread()


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call, run on one
    BLAS thread (_OneBlasThread)."""
    from scipy.optimize import minimize as scipy_minimize
    with _ONE_BLAS_THREAD:
        return scipy_minimize(*args, **kwargs)


def _slsqp(form: Form, m: int, start: np.ndarray,
           constraint: Optional[Form] = None, level: float = 0.0):
    cons = [{"type": "eq", "fun": lambda l: float(np.sum(l) - 1.0),
             "jac": lambda l: np.ones(m)}]
    if constraint is not None:
        cons.append({"type": "ineq", "fun": lambda l: level - constraint.value(l),
                     "jac": lambda l: -constraint.grad(l)})
    res = minimize(
        lambda l: form.value(l),
        x0=start,
        jac=form.grad,
        method="SLSQP",
        bounds=[(0.0, None)] * m,
        constraints=cons,
        options={"maxiter": MAX_ITERS, "ftol": 1e-12},
    )
    return _clean_simplex(res.x), int(res.nit)


def _certified_starts(objective: Form, m: int, starts,
                      constraint: Optional[Form] = None, level: float = 0.0,
                      repair: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                      threshold: Optional[float] = None) -> SolveResult:
    """SLSQP from each (lazily built) start until the certificate closes the gap.

    Each end point is `repair`ed, when given, before it is scored.  The
    loop stops once the best value lies within GAP_TOL of the best lower
    bound and, with a `threshold`, that value is at most the threshold or
    the bound lies above it; otherwise every start runs and the best
    value wins.
    """
    best = None  # (lam, value)
    lower = -np.inf
    iters = 0
    for s0 in starts:
        lam, nit = _slsqp(objective, m, s0, constraint, level)
        iters += nit
        if repair is not None:
            lam = repair(lam)
        lower = max(lower, lagrangian_bound(lam, objective, constraint, level))
        val = objective.value(lam)
        if best is None or val < best[1]:
            best = (lam, val)
        if best[1] - lower <= GAP_TOL and (
                threshold is None or best[1] <= threshold or lower > threshold):
            break
    cval = None if constraint is None else constraint.value(best[0])
    return SolveResult(*best, cval, iters, lower)


def minimize_simplex(m: int, form: Form,
                     threshold: Optional[float] = None) -> SolveResult:
    """Global minimum of a convex Form over the simplex.

    Affine forms are minimized exactly at the first best vertex.  Smooth
    forms run SLSQP from the center, then from the best three vertices,
    through _certified_starts; the vertices are scored only when the
    center does not certify (or, with a `threshold`, does not settle it).
    """
    if m < 1:
        raise DomainError("simplex dimension must be >= 1")
    if isinstance(form, AffineForm):
        lam = _vertex(m, np.argmin(form.coeffs))  # argmin takes the first on ties
        return SolveResult(lam, form.value(lam), None, 0, lagrangian_bound(lam, form))

    def starts():
        yield np.full(m, 1.0 / m)
        vertex_vals = np.array([form.value(_vertex(m, j)) for j in range(m)])
        for j in np.argsort(vertex_vals, kind="stable")[: min(3, m)]:
            yield _vertex(m, j)

    return _certified_starts(form, m, starts(), threshold=threshold)


def _vertex(m: int, j) -> np.ndarray:
    """Simplex vertex j: row j of the m x m identity, built alone."""
    return np.eye(1, m, j)[0]


#: vertex pairs scored per block in _lp_min (bounds its scratch memory)
_PAIR_BLOCK = 1 << 20


def _first_min(vals: np.ndarray):
    """(index, value) of the first minimum; NaN entries never win."""
    vals = np.where(np.isnan(vals), np.inf, vals)
    i = int(np.argmin(vals))
    return i, float(vals[i])


def _lp_min(b: np.ndarray, c: np.ndarray, r: float):
    """(lam, b . lam) minimizing b . lam over the simplex s.t. c . lam <= r.

    Needs min(c) <= r.  The feasible region is a polytope whose vertices
    are simplex vertices plus constraint-tight points on simplex edges:
    the best feasible vertex, then every tight mixture theta*e_j +
    (1-theta)*e_k of a feasible j and an infeasible k, scored in blocks of
    _PAIR_BLOCK pairs.  Ties keep the first in (j, k) row-major order, and
    a mixture must beat the vertex strictly.
    """
    m = b.size
    feasible = c <= r
    j, best_val = _first_min(np.where(feasible, b, np.inf))
    best_lam = _vertex(m, j)
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
                best_lam = theta[jj, kk] * _vertex(m, rows[jj, 0])
                best_lam[outside[kk]] = 1.0 - theta[jj, kk]
    return best_lam, best_val


def _affine_solve(objective: AffineForm, constraint: AffineForm, level: float,
                  m: int, feas_tol: float) -> SolveResult:
    """Exact optimum of the affine program; it is its own lower bound.
    feas_tol is FEAS_TOL, a parameter as benchmarks/tracing.py wraps it."""
    c = constraint.coeffs
    r = level - constraint.const
    min_c = float(np.min(c))
    if min_c > r:
        if min_c > r + feas_tol:
            raise Infeasible(f"constraint minimum {constraint.const + min_c} "
                             f"exceeds level {level} + feas_tol")
        lam = _vertex(m, np.argmin(c))
        val = objective.value(lam)
    else:
        lam, val = _lp_min(objective.coeffs, c, r)
        val = objective.const + val
    return SolveResult(lam, val, constraint.value(lam), 0, val)


def _polish_feasibility(lam: np.ndarray, lam_feas: np.ndarray, constraint: Form,
                        level: float) -> np.ndarray:
    """Smallest step along lam -> lam_feas restoring constraint <= level."""
    lo, hi = 0.0, 1.0  # invariant: hi = 1 or the value at hi is <= level
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        cand = (1.0 - mid) * lam + mid * lam_feas
        if constraint.value(cand) <= level:
            hi = mid
        else:
            lo = mid
    return (1.0 - hi) * lam + hi * lam_feas


def solve_simplex_program(m: int, objective: Form, constraint: Form,
                          level: float) -> SolveResult:
    """Minimize objective over the simplex s.t. constraint <= level.

    Raises Infeasible when the constraint minimum exceeds level + FEAS_TOL.
    The status is "optimal" when the returned point's Lagrangian gap is at
    most GAP_TOL and "uncertified" when no start closed it.
    """
    if m < 1:
        raise DomainError("simplex dimension must be >= 1")
    if isinstance(objective, AffineForm) and isinstance(constraint, AffineForm):
        return _affine_solve(objective, constraint, level, m, FEAS_TOL)

    probe = None

    def probe_lam():
        """The constraint minimizer; Infeasible when even it misses the level."""
        nonlocal probe
        if probe is None:
            probe = minimize_simplex(m, constraint, threshold=level + FEAS_TOL)
            if probe.objective_value > level + FEAS_TOL:
                raise Infeasible(f"constraint minimum {probe.objective_value} "
                                 f"exceeds level {level} + feas_tol")
        return probe.lam

    def starts():
        yield np.full(m, 1.0 / m)
        yield probe_lam()
        feas = [j for j in range(m) if constraint.value(_vertex(m, j)) <= level]
        if feas:
            yield _vertex(m, feas[int(np.argmin([objective.value(_vertex(m, j)) for j in feas]))])

    def polish(lam):
        # the polish ends at a point it scored <= level, or at the probe's
        # minimizer bit for bit, which probe_lam checked against level + FEAS_TOL
        if constraint.value(lam) > level + FEAS_TOL * 0.5:
            lam = _polish_feasibility(lam, probe_lam(), constraint, level)
        return lam

    res = _certified_starts(objective, m, starts(), constraint, level, polish)
    if probe is not None:
        res.iterations += probe.iterations
    return res
