"""The two checkers of a usable number, errors.check_real and
errors.check_count, and the inputs they now refuse at the entry points."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from npconvex import (BaseDictionary, CombinedClassifier, ConstantClassifier, DecisionStump,
                      NPConfig, SimplexWeights, alpha_kappa, binomial_tail_exact,
                      build_stump_dictionary, ccp_bound, check_sup_deviation, eps_bar_upper,
                      gamma_curve, hinge, kappa, monte_carlo_risk, n0_and_bound,
                      pooled_bound)
from npconvex.errors import DomainError, check_count, check_real
from npconvex.harness import Scenario, run_type1_coverage


@pytest.mark.parametrize("value", [0.5, 1, np.float64(0.25), np.int64(1), np.float32(0.5)])
def test_check_real_returns_a_number_inside_the_interval_unchanged(value):
    assert check_real(value, "x", 0, 1, "(]") is value


@pytest.mark.parametrize("value, ends, message", [
    (1.5, "()", "x must lie in (0, 1), got 1.5"),
    (0, "()", "x must lie in (0, 1), got 0"),
    (1, "[)", "x must lie in [0, 1), got 1"),
    (math.nan, "[]", "x must lie in [0, 1], got NaN, not a finite number"),
    (math.inf, "[]", "x must lie in [0, 1], got inf, not a finite number"),
    (True, "[]", "x must lie in [0, 1], got True"),
    ("0.5", "()", "x must lie in (0, 1), got '0.5'"),
    (None, "()", "x must lie in (0, 1), got None"),
])
def test_check_real_message_names_the_interval_and_the_value(value, ends, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        check_real(value, "x", 0, 1, ends)


def test_infinities_pass_only_at_a_closed_infinite_end():
    assert check_real(math.inf, "t", -math.inf, math.inf, "[]") == math.inf
    assert check_real(-math.inf, "t", -math.inf, math.inf, "[]") == -math.inf
    with pytest.raises(DomainError, match=r"^t must lie in \(-inf, inf\), got inf, not a finite"):
        check_real(math.inf, "t", -math.inf, math.inf)
    # a half-closed interval admits one infinity, so the refusal names none
    with pytest.raises(DomainError, match=r"^t must lie in \(-inf, inf\], got -inf$"):
        check_real(-math.inf, "t", -math.inf, math.inf, "(]")
    with pytest.raises(DomainError, match=r"^t must lie in \[-inf, inf\], got NaN$"):
        check_real(math.nan, "t", -math.inf, math.inf, "[]")


def test_an_integer_without_a_float_value_is_no_usable_number():
    with pytest.raises(DomainError, match="an integer of 1329 bits"):
        check_real(10 ** 400, "L", 0, math.inf)
    with pytest.raises(DomainError, match="an integer of 1329 bits"):
        check_real(-10 ** 400, "t", -math.inf, math.inf, "[]")
    with pytest.raises(DomainError, match="^M must be an integer >= 1, got an integer of"):
        check_count(10 ** 400, "M")


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
def test_check_count_returns_an_integer_unchanged(value):
    assert check_count(value, "n", 3) is value


@pytest.mark.parametrize("value", [2, 3.0, 2.5, math.nan, math.inf, True, np.bool_(True),
                                   "3", None])
def test_check_count_refuses_what_is_not_an_integer_at_least_k(value):
    with pytest.raises(DomainError, match="^n must be an integer >= 3, got "):
        check_count(value, "n", 3)


def test_a_caller_may_word_the_failure_with_the_value_in_it():
    with pytest.raises(DomainError, match=r"^no sample of size 2\.5$"):
        check_count(2.5, "n", 0, message="no sample of size {}")
    with pytest.raises(DomainError, match="^phi must be positive$"):
        check_real(-1.0, "phi", 0, math.inf, message="phi must be positive")


# each refusal below was a result, an OverflowError, a numpy ValueError or
# a TypeError before the checkers, as its comment says

def test_kappa_refuses_an_overflowing_result_and_count():
    with pytest.raises(DomainError, match="^kappa must lie in"):
        kappa(1e308, 3, 0.1)  # returned inf
    with pytest.raises(DomainError, match="^M must be an integer >= 1"):
        kappa(1.0, 10 ** 400, 0.1)  # OverflowError


def test_n0_and_bound_refuses_unusable_counts_and_overflow():
    with pytest.raises(DomainError, match="^n_minus must be an integer >= 1, got NaN$"):
        n0_and_bound(1.0, 0.1, 0.5, math.nan, 10, 2.0)  # a NaN bound
    with pytest.raises(DomainError, match="^n_plus must be an integer >= 1, got 2.5$"):
        n0_and_bound(1.0, 0.1, 0.5, 10, 2.5, 2.0)  # accepted
    with pytest.raises(DomainError, match="^n0 must lie in"):
        n0_and_bound(1e308, 0.1, 0.5, 10, 10, 2.0)  # OverflowError
    with pytest.raises(DomainError, match="^n0 must lie in"):
        n0_and_bound(1e200, 0.1, 0.5, 10, 10, 2.0)  # OverflowError in ** 2


def test_pooled_and_ccp_bounds_refuse_a_nan_count_and_an_overflowing_bound():
    with pytest.raises(DomainError, match="^n must be an integer"):
        pooled_bound(1.0, 0.1, 0.5, math.nan, 0.5, 2.0)  # NaN
    with pytest.raises(DomainError, match="^n must be an integer"):
        ccp_bound(1.0, 0.5, 0.5, math.nan, 2.0)  # NaN
    with pytest.raises(DomainError, match="^bound must lie in"):
        pooled_bound(1e308, 0.1, 0.5, 100, 0.5, 2.0)  # inf
    with pytest.raises(DomainError, match="^bound must lie in"):
        ccp_bound(1e308, 0.5, 0.5, 100, 2.0)  # inf


def test_eps_bar_upper_refuses_nan_and_an_infinite_estimate():
    with pytest.raises(DomainError, match="^min_r_minus_phi must lie in"):
        eps_bar_upper(math.nan, 1.0, 100, 0.5)  # NaN
    with pytest.raises(DomainError, match="^kappa must lie in"):
        eps_bar_upper(0.1, math.inf, 100, 0.5)  # inf
    with pytest.raises(DomainError, match="^eps_bar must lie in"):
        eps_bar_upper(1e308, 1.0, 100, 0.5)  # inf


def test_gamma_curve_refuses_a_nan_level():
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)], dim=1)
    scen = Scenario.prop31(0.3)
    atoms = (scen.population_atoms(d, "minus"), scen.population_atoms(d, "plus"))
    with pytest.raises(DomainError, match="^gamma_curve level must lie in"):
        gamma_curve(atoms, d, hinge(), [0.5, math.nan], resolution=0.05)  # (nan, inf)


def test_build_stump_dictionary_needs_an_integer_threshold_count():
    X = np.linspace(0.0, 1.0, 20)
    for count in (math.nan, 2.5):  # numpy ValueError; accepted
        with pytest.raises(DomainError, match="^per_axis_thresholds must be an integer >= 1"):
            build_stump_dictionary(X, count)


def test_binomial_tail_refuses_a_boolean_n():
    with pytest.raises(DomainError, match="^n must be an integer >= 1, got True$"):
        binomial_tail_exact(True, 0.5, 1)  # returned 0.5


def test_alpha_kappa_refuses_a_fractional_count():
    with pytest.raises(DomainError, match="^n_minus must be an integer >= 1, got 2.5$"):
        alpha_kappa(0.5, 1.0, 2.5)  # SampleTooSmall


def test_draws_and_the_sup_check_refuse_fractional_and_nan_sizes():
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="non-integer or negative size 2.5"):
        Scenario.prop31(0.3).draw_negatives(rng, 2.5)  # TypeError
    with pytest.raises(DomainError, match="non-integer or negative size 2.5"):
        Scenario.prop31(0.3).draw_pooled(rng, 2.5)  # TypeError
    assert rng.bit_generator.state == state
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)], dim=1)
    with pytest.raises(DomainError, match="^trials must be an integer >= 1, got NaN$"):
        check_sup_deviation(Scenario.prop31(0.3), d, hinge(), n=50, delta=0.1,
                            trials=math.nan, seed=1)  # TypeError


def test_stump_axis_must_be_a_count():
    with pytest.raises(DomainError, match="^stump axis must be an integer >= 0, got 0.5$"):
        DecisionStump(0.5, 0.2, 1)  # a stump on axis 0.5


def test_coverage_and_monte_carlo_counts_refuse_nan():
    d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)], dim=1)
    cfg = NPConfig(alpha=0.9, delta=0.5, surrogate=hinge())
    with pytest.raises(DomainError, match="^trials must be an integer >= 1, got NaN$"):
        run_type1_coverage(Scenario.prop31(0.3), d, cfg, 200, 200, trials=math.nan,
                           mc_draws=100, seed=1)  # nan < 1 passed
    h = CombinedClassifier(d, SimplexWeights([0.5, 0.5]))
    with pytest.raises(DomainError, match="^m must be an integer >= 100, got NaN$"):
        monte_carlo_risk(h, hinge(), Scenario.prop31(0.3), "type1_phi", m=math.nan,
                         seed=1)  # nan < 100 passed
