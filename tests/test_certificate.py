"""The Lagrangian certificate and the certified stop of the smooth route."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npconvex import _solver_core as core
from npconvex import hypothesis as dictionaries
from npconvex._grids import iter_grid_chunks
from npconvex.errors import Infeasible
from npconvex.np_solver import NPConfig, _oracle_scan, solve_np
from npconvex.risk import Sample, phi_risk_from_matrix
from npconvex.surrogate import custom, exponential, logit

FEAS_TOL = 1e-8
#: exponential tabulated at 11 knots: a piecewise-linear, non-smooth phi
TABLE_Z = np.linspace(-1.0, 1.0, 11)
SURROGATES = {
    "logit": logit(),
    "exponential": exponential(),
    "custom": custom(TABLE_Z, np.exp(TABLE_Z), lipschitz=float(np.e)),
}


def _program(seed, m, n, kind):
    """Two class matrices with a constant -1 base, as solve_np builds them."""
    rng = np.random.default_rng(seed)
    H_minus = rng.uniform(-1.0, 1.0, (n, m))
    H_plus = rng.uniform(-1.0, 1.0, (n, m))
    H_minus[:, 0] = H_plus[:, 0] = -1.0
    s = SURROGATES[kind]
    return H_minus, H_plus, s


def _spy(monkeypatch, name):
    calls = []
    orig = getattr(core, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(core, name, wrapper)
    return calls


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 3),
       n=st.integers(20, 500), kind=st.sampled_from(sorted(SURROGATES)),
       quantile=st.floats(0.02, 0.9))
def test_certificate_properties_against_the_grid_oracle(seed, m, n, kind, quantile):
    H_minus, H_plus, s = _program(seed, m, n, kind)
    k = 60
    grid = np.concatenate(list(iter_grid_chunks(m, k)))
    con = np.array([phi_risk_from_matrix(H_minus, lam, s, +1.0) for lam in grid])
    level = float(np.quantile(con, quantile))

    def solve():
        return core.solve_simplex_program(
            m, core.risk_form(H_plus, s, -1.0), core.risk_form(H_minus, s, +1.0),
            level, feas_tol=FEAS_TOL)

    res = solve()
    assert res.gap >= 0.0
    assert res.constraint_value <= level + FEAS_TOL
    # grid points are feasible points, so their best value bounds the optimum
    _, ref = _oracle_scan(H_minus, H_plus, s, level, iter_grid_chunks(m, k))
    assert res.lower_bound <= ref + 1e-9
    if res.gap <= core.GAP_TOL:
        assert res.objective_value <= ref + core.GAP_TOL + 1e-9
    assert solve().lam.tobytes() == res.lam.tobytes()


def test_affine_route_certificate_closes_the_gap():
    rng = np.random.default_rng(3)
    for m in (2, 5, 40):
        b, c = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
        level = 1.0 + float(np.median(c))
        res = core.solve_simplex_program(m, core.AffineForm(1.0, b),
                                         core.AffineForm(1.0, c), level)
        assert 0.0 <= res.gap <= 1e-12
        # and the bound is the optimum: no feasible vertex beats it
        assert res.lower_bound <= 1.0 + b[c <= level - 1.0].min() + 1e-12


def _brute_force_dual(c, d):
    """max over mu >= 0 of min_j (c_j + mu d_j), by trying every breakpoint.

    The function is concave and piecewise linear in mu, so its maximum
    sits at mu = 0 or where two lines cross; it is unbounded when every
    line slopes up.
    """
    if np.all(d > 0.0):
        return np.inf
    mus = [0.0]
    for j in range(c.size):
        for k in range(c.size):
            if d[j] != d[k]:
                mu = (c[k] - c[j]) / (d[j] - d[k])
                if mu >= 0.0:
                    mus.append(mu)
    return max(float(np.min(c + mu * d)) for mu in mus)


@pytest.mark.parametrize("tied", [False, True])
def test_lagrangian_bound_is_the_exact_dual(tied):
    # an affine form linearizes to itself, so the bound of an AffineForm
    # pair is the dual of its own lines, wherever it is taken; the
    # reference takes those lines with the same rounding as the bound
    rng = np.random.default_rng(17 + tied)
    cases = 0
    for trial in range(400):
        m = 1 + trial % 12
        if tied:  # few distinct values: equal lines and shared crossings
            b, g = rng.integers(-3, 4, m) / 4.0, rng.integers(-3, 4, m) / 4.0
        else:
            b, g = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
        level = float(rng.choice([rng.uniform(-1.2, 1.2), g[rng.integers(m)],
                                  g.min() - 0.25, g.max() + 0.25]))
        lam = rng.dirichlet(np.ones(m))
        f, h = core.AffineForm(0.5, b), core.AffineForm(0.25, g)
        bound = core.lagrangian_bound(lam, f, h, level)
        ref = _brute_force_dual(b + (f.value(lam) - b @ lam),
                                g + (h.value(lam) - level - g @ lam))
        if np.isinf(ref):
            assert bound == np.inf
        else:
            assert abs(bound - ref) <= 1e-12
            cases += 1
    assert cases > 200


def test_lagrangian_bound_at_the_extreme_slopes():
    center = np.full(3, 1 / 3)
    f = core.AffineForm(0.0, np.array([0.3, -0.2, 0.1]))
    g = core.AffineForm(0.0, np.array([0.5, 0.7, 0.6]))
    # every d_j > 0: the linearized program is infeasible, the dual unbounded
    assert core.lagrangian_bound(center, f, g, 0.4) == np.inf
    # every d_j < 0: the constraint never binds and the bound is min_j c_j
    assert core.lagrangian_bound(center, f, g, 0.8) == -0.2
    assert _brute_force_dual(f.coeffs, g.coeffs - 0.8) == -0.2
    # a NaN gradient entry certifies nothing, even where the rest would
    nan_f = core.AffineForm(0.0, np.array([0.3, np.nan, 0.1]))
    assert core.lagrangian_bound(center, nan_f, g, 0.8) == -np.inf


def _np_smooth_like():
    rng = np.random.default_rng(8)
    neg = rng.normal(0.0, 1.0, (5000, 2))
    pos = rng.normal(0.7, 1.0, (5000, 2))
    stumps = dictionaries.build_stump_dictionary(np.vstack([neg, pos]), 3)
    d = dictionaries.BaseDictionary(
        [dictionaries.ConstantClassifier(-1.0), *stumps.bases], dim=2)
    return Sample(neg, pos), d, NPConfig(alpha=0.7, delta=0.1, surrogate=logit())


def test_feasible_smooth_solve_runs_one_slsqp_and_no_probe(monkeypatch):
    sample, d, cfg = _np_smooth_like()

    def no_probe(*args, **kwargs):
        raise AssertionError("a certified first start needs no constraint probe")

    runs = _spy(monkeypatch, "_slsqp")
    monkeypatch.setattr(core, "minimize_simplex", no_probe)
    sol = solve_np(sample, d, cfg)
    assert len(runs) == 1
    assert sol.status == "optimal"
    assert 0.0 <= sol.gap <= core.GAP_TOL
    assert sol.r_minus_phi <= sol.alpha_kappa + core.FEAS_TOL


def test_unconstrained_smooth_minimum_stops_at_the_center(monkeypatch):
    sample, d, cfg = _np_smooth_like()
    form = core.risk_form(d.evaluate_matrix(sample.negatives), cfg.surrogate, +1.0)
    runs = _spy(monkeypatch, "_slsqp")
    res = core.minimize_simplex(d.m, form)
    assert len(runs) == 1
    assert 0.0 <= res.gap <= core.GAP_TOL
    assert res.lower_bound <= min(form.value(e) for e in np.eye(d.m))


def test_infeasible_first_start_runs_the_probe_once(monkeypatch):
    # the level sits just above the constraint floor phi(-1) at the
    # constant base, and two SLSQP iterations leave the center start short
    H_minus, H_plus, s = _program(2, 3, 300, "logit")
    level = s.eval(-1.0) + 2e-3
    con, obj = core.risk_form(H_minus, s, +1.0), core.risk_form(H_plus, s, -1.0)
    center = np.full(3, 1.0 / 3)
    lam, _ = core._slsqp(obj, 3, center, 2, constraint=con, level=level)
    assert con.value(lam) > level + FEAS_TOL
    runs = _spy(monkeypatch, "_slsqp")
    probes = _spy(monkeypatch, "minimize_simplex")
    res = core.solve_simplex_program(3, obj, con, level, feas_tol=FEAS_TOL, max_iters=2)
    assert runs[0][2].tobytes() == center.tobytes()
    assert len(probes) == 1
    assert res.constraint_value <= level + FEAS_TOL
    assert res.gap <= core.GAP_TOL


def test_infeasible_smooth_program_still_raises(monkeypatch):
    H_minus, H_plus, s = _program(5, 3, 200, "logit")
    probes = _spy(monkeypatch, "minimize_simplex")
    with pytest.raises(Infeasible):
        # below phi(-1), the least type-I risk any mixture can reach
        core.solve_simplex_program(3, core.risk_form(H_plus, s, -1.0),
                                   core.risk_form(H_minus, s, +1.0), 0.3)
    assert len(probes) == 1


def test_probe_decides_infeasible_only_when_the_stop_settles_it(monkeypatch):
    # a constraint 0.5 + 5e-7 h(lam) whose minimum 0.5 sits at the vertex
    # e0: two SLSQP iterations from the center stop 2.7e-6 short, which the
    # certificate (gap < GAP_TOL) accepts as a minimum, yet the level 0.5
    # is reachable.  The probe must not call that Infeasible.
    scale, c, t = 5e-7, np.array([0.0, 1.0, 2.0]), np.array([0.1, 0.3, 0.6])
    con = core.SmoothForm(
        fn=lambda l: 0.5 + scale * float(c @ l + 10.0 * (l[1] + l[2]) ** 2),
        grad_fn=lambda l: scale * (c + 20.0 * (l[1] + l[2]) * np.array([0.0, 1.0, 1.0])))
    obj = core.SmoothForm(fn=lambda l: float(np.sum((l - t) ** 2)),
                          grad_fn=lambda l: 2.0 * (l - t))
    center = core.minimize_simplex(3, con, max_iters=2)
    assert center.gap <= core.GAP_TOL
    assert center.objective_value > 0.5 + FEAS_TOL
    runs = _spy(monkeypatch, "_slsqp")
    probe = core.minimize_simplex(3, con, max_iters=2, threshold=0.5 + FEAS_TOL)
    # the center did not settle it; the best vertex e0 did
    assert [r[2].tobytes() for r in runs] == [np.full(3, 1 / 3).tobytes(), np.eye(3)[0].tobytes()]
    assert probe.objective_value <= 0.5 + FEAS_TOL
    res = core.solve_simplex_program(3, obj, con, 0.5, feas_tol=FEAS_TOL, max_iters=2)
    assert res.constraint_value <= 0.5 + FEAS_TOL


@pytest.mark.parametrize("kind", sorted(SURROGATES))
def test_shared_margins_leave_values_and_gradients_bitwise(kind):
    H_minus, _, s = _program(11, 3, 400, kind)
    form = core.risk_form(H_minus, s, +1.0)
    rng = np.random.default_rng(0)
    points = [core._clean_simplex(rng.uniform(size=3)) for _ in range(4)]
    for lam in points + points[::-1]:
        grad = form.grad(lam)
        value = form.value(lam)
        assert value == phi_risk_from_matrix(H_minus, lam, s, +1.0)
        d = s.derivative(H_minus @ lam)
        assert grad.tobytes() == (H_minus.T @ (np.full(400, 1 / 400) * d)).tobytes()


def test_uncertified_solve_says_so():
    # exp tabulated at 11 knots has kinks where the bound is loose: no
    # start closes the gap, so the solve must not call itself optimal
    H_minus, H_plus, s = _program(1, 3, 65, "custom")
    con, obj = core.risk_form(H_minus, s, +1.0), core.risk_form(H_plus, s, -1.0)
    level = float(np.median([con.value(e) for e in np.eye(3)]))
    res = core.solve_simplex_program(3, obj, con, level, feas_tol=FEAS_TOL)
    assert res.gap > core.GAP_TOL
    assert res.status == "uncertified"
    assert res.constraint_value <= level + FEAS_TOL
    certified = core.SolveResult(res.lam, res.lower_bound + core.GAP_TOL / 2, None, 0,
                                 res.lower_bound)
    assert certified.status == "optimal"


def test_level_missed_within_feas_tol_returns_the_probe_minimizer(monkeypatch):
    # the constraint minimum phi(-1), at the constant base, lies 0.75
    # feas_tol above the level: every start ends above it, the polish
    # finds no point at or below it and ends at the probe's minimizer
    H_minus, H_plus, s = _program(4, 3, 200, "logit")
    con, obj = core.risk_form(H_minus, s, +1.0), core.risk_form(H_plus, s, -1.0)
    level = s.eval(-1.0) - 0.75 * FEAS_TOL
    center, _ = core._slsqp(obj, 3, np.full(3, 1 / 3), 500, constraint=con, level=level)
    assert con.value(center) > level + 0.5 * FEAS_TOL
    probes = []
    minimize_simplex = core.minimize_simplex

    def spy(*args, **kwargs):
        probes.append(minimize_simplex(*args, **kwargs))
        return probes[-1]

    monkeypatch.setattr(core, "minimize_simplex", spy)
    res = core.solve_simplex_program(3, obj, con, level, feas_tol=FEAS_TOL)
    assert len(probes) == 1
    assert level < probes[0].objective_value <= level + FEAS_TOL
    assert res.lam.tobytes() == probes[0].lam.tobytes()
    assert res.constraint_value <= level + FEAS_TOL
