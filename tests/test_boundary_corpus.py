"""Boundary corpus: every public entry point, the harness runners and the
Scenario constructors and draws, each called with one numeric argument
set to a value that cannot be meant.

Every other argument keeps a tiny valid value.  A call must raise an
NPConvexError subclass, or return normally with no NaN and no infinite
number in what it returns; the documented +inf of an infeasible
gamma_curve level and an infinite stump threshold are allowed.

A count (an argument whose valid value is an int) is never set to +-inf
or 1e308: a float count is already covered by 2.5, and one that slipped
through would size a draw or a loop by it.  An integer beyond the float
range is refused by check_count, which tests/test_domain_checks.py tests
without drawing anything.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import npconvex
from npconvex import (AffineForm, BaseDictionary, CCPInstance, CombinedClassifier,
                      ConstantClassifier, DecisionStump, NPConfig, NPConvexError, Sample,
                      SimplexWeights, WeightedAtoms, hinge)
from npconvex.harness import (Scenario, np_lemma_oracle, oracle_type2_mc,
                              run_ccp_feasibility, run_counterexample, run_rate_experiment,
                              run_sampling_scheme, run_type1_coverage)

#: the values each numeric argument is set to, one at a time; HUGE only
#: where the valid value is not an int
HUGE = (math.inf, -math.inf, 1e308)
BAD = (math.nan, -1, 0, 2.5, True, "x", None)

_RNG = np.random.default_rng(0)
_NEG, _POS = _RNG.uniform(0, 1, (200, 1)), _RNG.uniform(0.3, 1.3, (200, 1))
_DICT = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)], dim=1)
_SAMPLE = Sample(_NEG, _POS)
_CFG = NPConfig(alpha=0.9, delta=0.5, surrogate=hinge())
_SCEN = Scenario.prop31(0.3)
_ATOMS = (_SCEN.population_atoms(_DICT, "minus"), _SCEN.population_atoms(_DICT, "plus"))
_H = CombinedClassifier(_DICT, SimplexWeights([0.5, 0.5]))
#: a CCP program needs n > 345 here for a positive level alpha - kappa / sqrt(n)
_G = _DICT.evaluate_matrix(_RNG.uniform(0, 1, (400, 1)))


def _ccp_instance(alpha=0.45, delta=0.45, const=0.0):
    return CCPInstance(alpha=alpha, delta=delta, surrogate=hinge(),
                       objective=AffineForm(const, np.array([1.0, 0.0])), g_matrix=_G)


def _curve():
    return npconvex.gamma_curve(_ATOMS, _DICT, hinge(), [0.5, 0.6, 0.7], resolution=0.05)


#: (name, call, {argument: valid value}): call(**arguments) must succeed
TABLE = [
    ("binomial_tail_exact", npconvex.binomial_tail_exact, dict(n=10, q=0.5, t=3.0)),
    ("check_lemma_bin", npconvex.check_lemma_bin, dict(n=10, q=0.5, t=2.0)),
    ("check_lemma_bin2", npconvex.check_lemma_bin2, dict(n=10, q=0.25)),
    ("sweep_binomial_lemmas", npconvex.sweep_binomial_lemmas,
     dict(n_max=3, q_points=2, t_points=1)),
    ("check_prop42", lambda nu, **kw: npconvex.check_prop42(_curve(), nu_grid=[nu], **kw),
     dict(alpha=0.7, nu0=0.2, nu=0.1, phi_at_one=2.0, slack=0.0)),
    ("check_rademacher_vertex_identity",
     lambda **kw: npconvex.check_rademacher_vertex_identity(_DICT, _NEG, **kw),
     dict(seed=1, trials=1, resolution=0.05)),
    ("check_sup_deviation",
     lambda **kw: npconvex.check_sup_deviation(_SCEN, _DICT, hinge(), **kw),
     dict(n=50, delta=0.5, trials=1, seed=1, resolution=0.05)),
    ("gamma_curve",
     lambda level, **kw: npconvex.gamma_curve(_ATOMS, _DICT, hinge(), [level], **kw),
     dict(level=0.5, resolution=0.05)),
    ("CCPInstance", _ccp_instance, dict(alpha=0.45, delta=0.45, const=0.0)),
    ("ccp_bound", npconvex.ccp_bound,
     dict(kappa_value=1.0, eps=0.5, alpha=0.4, n=100, phi_at_one=2.0)),
    ("chance_feasibility_estimate",
     lambda **kw: npconvex.chance_feasibility_estimate([0.5, 0.5], _DICT, _NEG, **kw),
     dict(alpha=0.4)),
    ("grid_oracle_ccp", lambda **kw: npconvex.grid_oracle_ccp(_ccp_instance(), **kw),
     dict(resolution=0.05)),
    ("BaseDictionary", lambda **kw: BaseDictionary([DecisionStump(0, 0.5, 1)], **kw),
     dict(dim=1)),
    ("ConstantClassifier", ConstantClassifier, dict(value=-1.0)),
    ("DecisionStump", DecisionStump, dict(axis=0, threshold=0.5, polarity=1)),
    ("build_stump_dictionary", lambda **kw: npconvex.build_stump_dictionary(_NEG, **kw),
     dict(per_axis_thresholds=2)),
    ("NPConfig", lambda **kw: NPConfig(surrogate=hinge(), **kw),
     dict(alpha=0.9, delta=0.5)),
    ("alpha_kappa", npconvex.alpha_kappa, dict(alpha=0.9, kappa_value=1.0, n_minus=100)),
    ("eps_bar_upper", npconvex.eps_bar_upper,
     dict(min_r_minus_phi=0.1, kappa_value=1.0, n_minus=100, alpha=0.5)),
    ("feasibility_probe", lambda **kw: npconvex.feasibility_probe(_NEG, _DICT, _CFG, **kw),
     dict(eps=0.9)),
    ("grid_oracle_np", lambda **kw: npconvex.grid_oracle_np(_SAMPLE, _DICT, _CFG, **kw),
     dict(resolution=0.05)),
    ("kappa", npconvex.kappa, dict(L=1.0, M=2, delta=0.5)),
    ("n0_and_bound", npconvex.n0_and_bound,
     dict(kappa_value=1.0, eps_bar=0.1, alpha=0.5, n_minus=100, n_plus=100,
          phi_at_one=2.0)),
    ("pooled_bound", npconvex.pooled_bound,
     dict(kappa_value=1.0, eps_bar=0.1, alpha=0.5, n=100, p=0.5, phi_at_one=2.0)),
    ("WeightedAtoms", lambda n: WeightedAtoms(np.ones((2, 1)), [0.5, 0.5], n), dict(n=10)),
    ("exact_risks_prop31", npconvex.exact_risks_prop31, dict(lam=0.3, alpha=0.3)),
    ("monte_carlo_risk",
     lambda **kw: npconvex.monte_carlo_risk(_H, hinge(), _SCEN, "type1_phi", **kw),
     dict(m=100, seed=1)),
    ("custom", lambda lipschitz: npconvex.custom([-1.0, 0.0, 1.0], [0.0, 1.0, 2.0],
                                                 lipschitz), dict(lipschitz=1.0)),
    ("run_counterexample", run_counterexample,
     dict(alpha=0.25, n_minus=20, n_plus=20, trials=1, seed=1, tau=0.2, grid_size=10)),
    ("run_type1_coverage",
     lambda **kw: run_type1_coverage(_SCEN, _DICT, _CFG, **kw),
     dict(n_minus=200, n_plus=200, trials=1, mc_draws=100, seed=1, kappa_scale=1.0)),
    ("run_rate_experiment",
     lambda n, **kw: run_rate_experiment(_SCEN, _DICT, _CFG, [n], **kw),
     dict(n=200, trials=1, seed=1, eps_bar=0.0, oracle_resolution=0.05, mc_draws=100)),
    ("run_sampling_scheme",
     lambda tail, **kw: run_sampling_scheme(_SCEN, _DICT, _CFG, tail_thresholds=[tail],
                                            **kw),
     dict(n=200, trials=1, seed=1, eps_bar=0.0, tail=50.0, oracle_resolution=0.05,
          mc_draws=100)),
    ("run_ccp_feasibility",
     lambda **kw: run_ccp_feasibility(_SCEN, _DICT, [1.0, 0.0], surrogate=hinge(), **kw),
     dict(alpha=0.45, delta=0.45, n=200, trials=1, validation_draws=100, seed=1,
          f_star=0.5, eps=0.5)),
    ("np_lemma_oracle", lambda **kw: np_lemma_oracle(_SCEN, **kw), dict(alpha=0.3)),
    ("oracle_type2_mc", lambda **kw: oracle_type2_mc(_SCEN, **kw),
     dict(alpha=0.3, draws=100, seed=1)),
    ("Scenario", lambda p: Scenario("prop31", p, alpha=0.3), dict(p=0.5)),
    ("Scenario.prop31", Scenario.prop31, dict(alpha=0.3, p=0.5)),
    ("Scenario.gaussian_1d", Scenario.gaussian_1d,
     dict(mu_minus=0.0, mu_plus=1.0, sigma=1.0, p=0.5)),
    ("Scenario.custom_csv", lambda p: Scenario.custom_csv(_NEG, _POS, p), dict(p=0.5)),
    ("draw_negatives", lambda n: _SCEN.draw_negatives(np.random.default_rng(1), n),
     dict(n=5)),
    ("draw_positives", lambda n: _SCEN.draw_positives(np.random.default_rng(1), n),
     dict(n=5)),
    ("draw_pooled", lambda n: _SCEN.draw_pooled(np.random.default_rng(1), n), dict(n=5)),
]

#: calls whose result may hold +-inf by contract
_INF_ALLOWED = {"gamma_curve", "DecisionStump"}


def _non_finite(obj, path="result"):
    """Paths of the NaN and infinite numbers in obj, searched through
    containers, arrays, dataclasses and plain objects."""
    if isinstance(obj, (bool, str, bytes, type(None))) or callable(obj):
        return []
    if isinstance(obj, (int, float, np.number)):
        return [] if math.isfinite(obj) else [f"{path} = {obj}"]
    if isinstance(obj, np.ndarray):
        return ([] if obj.dtype.kind not in "fc" or np.all(np.isfinite(obj))
                else [f"{path} holds a non-finite entry"])
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{path}[{k!r}]")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{path}[{i}]")]
    if dataclasses.is_dataclass(obj):
        return [p for f in dataclasses.fields(obj)
                for p in _non_finite(getattr(obj, f.name), f"{path}.{f.name}")]
    if hasattr(obj, "__dict__"):
        return _non_finite(vars(obj), path)
    return []


def test_every_public_entry_point_is_in_the_table():
    # the re-exports that take no numeric argument: classes, solvers of an
    # already checked instance or sample, and array-only functions
    no_scalar = {"chance_violation_from_matrix", "evaluate_constraint_bases",
                  "linear_objective", "SimplexWeights",
                  "empirical_01_type1", "empirical_01_type2", "empirical_atoms",
                  "empirical_phi_type1", "empirical_phi_type2", "risk_report", "solve_ccp",
                  "solve_np", "split_pooled", "by_name", "exponential", "hinge", "logit",
                  "AffineForm", "SmoothForm", "CCPSolution", "NPSolution", "BoundReport",
                  "RiskReport", "LemmaCheckResult", "Surrogate", "FunctionClassifier",
                  "CombinedClassifier", "Sample"}
    public = {name for name, value in vars(npconvex).items()
              if not name.startswith("_") and callable(value)
              and not (isinstance(value, type) and issubclass(value, BaseException))}
    assert sorted(public - {name for name, _, _ in TABLE} - no_scalar) == []


@pytest.mark.parametrize("name, call, base", TABLE, ids=[row[0] for row in TABLE])
def test_a_value_that_cannot_be_meant_is_refused_or_harmless(name, call, base):
    assert _non_finite(call(**base)) == []  # the base call is valid
    failures = []
    for key, valid in base.items():
        for bad in BAD if type(valid) is int else HUGE + BAD:
            try:
                out = call(**{**base, key: bad})
            except NPConvexError:
                continue
            except Exception as err:  # noqa: BLE001 - any other type is the finding
                failures.append(f"{key}={bad!r}: {type(err).__name__}: {err}")
                continue
            found = _non_finite(out)
            if name in _INF_ALLOWED:
                found = [p for p in found if "nan" in p]
            if found:
                failures.append(f"{key}={bad!r}: {found[:3]}")
    assert failures == []
