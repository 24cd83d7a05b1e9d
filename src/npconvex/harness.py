"""End-to-end experiments checking the package's guarantees at desk scale.

Each experiment draws seeded trials, runs the production solver, and
compares measured frequencies against the corresponding probabilistic
guarantee with 3-standard-error Monte Carlo tolerances.  The rate and
sampling runners take population risks and gamma(alpha) from one
reference (_population_reference): exact interval atoms for the uniform
construction, the atoms of one Monte Carlo sample otherwise.  Exact
binomial tails check the realized class counts.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from ._seeding import rng_for, worker_count
from .bounds import binomial_tail_exact, gamma_curve
from .ccp import (CCPInstance, ccp_bound, chance_feasibility_estimate,
                  evaluate_constraint_bases, linear_objective, solve_ccp)
from .errors import (DomainError, Infeasible, NPConvexError, UnknownScenario,
                     check_count, check_real)
from .hypothesis import BaseDictionary, FunctionClassifier
from .np_solver import (NPConfig, _min_type1, _solve_np, alpha_kappa,
                        eps_bar_upper, kappa, n0_and_bound, pooled_bound,
                        solve_np, split_pooled)
from .risk import (Sample, WeightedAtoms, _as_matrix, _mc_estimate,
                   empirical_atoms, exact_risks_prop31)


def _three_se(p: float, trials: int) -> float:
    p = min(max(p, 0.0), 1.0)
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


_BAD_SIZE = "cannot draw a sample of non-integer or negative size {}"


class Scenario:
    """A synthetic data-generating law with class-conditionals and mixing p.

    Kinds:
      * prop31(alpha): both class-conditionals uniform on [0, 1]; alpha is
        the counterexample's split point.
      * gaussian_1d(mu_minus, mu_plus, sigma): one-dimensional Gaussians
        with a shared standard deviation.
      * custom_csv(negatives, positives): empirical law over given rows,
        sampled with replacement; no closed-form population quantities.
    """

    def __init__(self, kind, p, **params):
        check_real(p, "mixing p", 0, 1)
        self.kind = kind
        self.p = float(p)
        self.params = params

    @classmethod
    def prop31(cls, alpha: float, p: float = 0.5) -> "Scenario":
        return cls("prop31", p, alpha=float(check_real(alpha, "alpha", 0, 1)))

    @classmethod
    def gaussian_1d(cls, mu_minus: float, mu_plus: float, sigma: float,
                    p: float = 0.5) -> "Scenario":
        return cls("gaussian_1d", p, mu_minus=float(check_real(mu_minus, "mu_minus")),
                   mu_plus=float(check_real(mu_plus, "mu_plus")),
                   sigma=float(check_real(sigma, "sigma", 0, math.inf)))

    @classmethod
    def custom_csv(cls, negatives, positives, p: float = 0.5) -> "Scenario":
        neg, pos = _as_matrix(negatives), _as_matrix(positives)
        if neg.shape[0] == 0 or pos.shape[0] == 0:
            raise DomainError("custom scenario needs rows for both classes")
        if neg.shape[1] != pos.shape[1]:
            raise DomainError("class files disagree on the number of features")
        return cls("custom_csv", p, negatives=neg, positives=pos)

    def _draw(self, rng, n: int, side: str) -> np.ndarray:
        check_count(n, "n", 0, message=_BAD_SIZE)
        if self.kind == "prop31":
            return rng.random((n, 1))
        if self.kind == "gaussian_1d":
            mu = self.params["mu_minus" if side == "minus" else "mu_plus"]
            return rng.normal(mu, self.params["sigma"], (n, 1))
        pool = self.params["negatives" if side == "minus" else "positives"]
        rows = rng.integers(0, pool.shape[0], n)
        return pool[rows]

    def draw_negatives(self, rng, n: int) -> np.ndarray:
        return self._draw(rng, n, "minus")

    def draw_positives(self, rng, n: int) -> np.ndarray:
        return self._draw(rng, n, "plus")

    def draw_pooled(self, rng, n: int):
        """(X, y) with labels +1 w.p. p; row order is the label draw order."""
        check_count(n, "n", 0, message=_BAD_SIZE)
        y = np.where(rng.random(n) < self.p, 1.0, -1.0)
        n_plus = int(np.sum(y == 1.0))
        d = 1 if self.kind != "custom_csv" else self.params["negatives"].shape[1]
        X = np.empty((n, d))
        X[y == -1.0] = self.draw_negatives(rng, n - n_plus)
        X[y == 1.0] = self.draw_positives(rng, n_plus)
        return X, y

    def population_atoms(self, dictionary: BaseDictionary,
                         side: str) -> WeightedAtoms:
        """Exact class-conditional law of the base-value vector.

        Needs the dictionary's plan to hold only stock stumps on axis 0 and
        stock constants.  Their sorted distinct thresholds t_1 < ... < t_K
        cut the line into intervals (t_i, t_{i+1}], with t_0 = -inf and
        t_{K+1} = +inf; each charges its CDF difference (uniform or normal)
        to the base values at its right end, where every stump takes the
        value it has on the whole interval.
        """
        if side not in ("minus", "plus"):
            raise DomainError(f"side must be 'minus' or 'plus', got {side!r}")
        if self.kind == "custom_csv":
            raise DomainError("custom scenario has no closed-form population")
        if dictionary._opaque.size or any(g.axis != 0 for g in dictionary._stumps):
            raise DomainError("population atoms need stumps on axis 0 or constants")
        cdf = (NormalDist(self.params["mu_" + side], self.params["sigma"]).cdf
               if self.kind == "gaussian_1d" else lambda t: min(max(t, 0.0), 1.0))
        cuts = dictionary._stumps[0].thresholds if dictionary._stumps else np.empty(0)
        weights = np.diff([0.0, *map(cdf, cuts), 1.0])
        reps = np.append(cuts, np.inf)
        keep = weights > 0.0
        weights = weights[keep] / float(np.sum(weights[keep]))
        H = dictionary.evaluate_matrix(reps[keep].reshape(-1, 1))
        return WeightedAtoms(H=H, weights=weights)


def _population_reference(scenario, dictionary: BaseDictionary, s, alpha: float,
                          resolution: float, mc_draws: int, seed: int):
    """Population (minus, plus) atoms and gamma(alpha) for the runners.

    Closed-form interval atoms for the uniform construction; otherwise the
    merged atoms of one large shared reference sample, whose estimates
    carry nonzero half-widths.  Other scenarios may well admit exact atoms
    too, but the experiments deliberately stay Monte Carlo there so the
    harness treats every generative law the same way.  An infinite
    gamma(alpha) leaves no excess risk to score and raises Infeasible.
    """
    check_count(mc_draws, "mc_draws (Monte Carlo draws)", 2)
    if getattr(scenario, "kind", None) == "prop31":
        atoms = (scenario.population_atoms(dictionary, "minus"),
                 scenario.population_atoms(dictionary, "plus"))
    else:
        rng = rng_for(seed, "harness.reference")
        Xm = scenario.draw_negatives(rng, mc_draws)
        Xp = scenario.draw_positives(rng, mc_draws)
        atoms = (empirical_atoms(dictionary.evaluate_matrix(Xm)),
                 empirical_atoms(dictionary.evaluate_matrix(Xp)))
    gamma_alpha = gamma_curve(atoms, dictionary, s, [alpha], resolution)[0][1]
    if not math.isfinite(gamma_alpha):
        raise Infeasible(f"gamma({alpha}) is infinite for this instance")
    return (*atoms, gamma_alpha)


def _eps_bar(eps_bar, negatives, dictionary, cfg: NPConfig, kap: float) -> float:
    """eps_bar as given, else its probe upper bound on the negatives."""
    if eps_bar is not None:
        return eps_bar
    _, min_r = _min_type1(negatives, dictionary, cfg)
    return eps_bar_upper(min_r, kap, negatives.shape[0], cfg.alpha)


def _run_trials(fn, trials: int):
    workers = min(worker_count(), trials)
    if workers <= 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


def run_counterexample(alpha: float, n_minus: int, n_plus: int, trials: int,
                       seed: int, tau: Optional[float] = None,
                       grid_size: int = 1000) -> dict:
    """Strengthened-constraint failure on the two-classifier construction.

    Bases are h1 = -1 and h2 = sign(alpha - x); both classes uniform on
    [0, 1]; lambda weights h1.  Empirical 0/1 risks are piecewise constant
    in lambda with the single breakpoint 1/2, so a grid scan of the
    strengthened program (R-hat-minus < tau, tau <= alpha) is exhaustive.
    Whenever the empirical negative mass of [0, alpha] reaches alpha, the
    feasible set collapses to lambda > 1/2 and the solution's excess true
    type-II risk equals alpha exactly.  True risks come from
    exact_risks_prop31; the summary counts are taken from the trial rows.
    """
    check_real(alpha, "alpha", 0, 0.5, "(]")
    for count, name in ((n_minus, "n_minus"), (n_plus, "n_plus"), (trials, "trials"),
                        (grid_size, "grid_size")):
        check_count(count, name)
    if tau is None:
        tau = alpha - 1.0 / math.sqrt(n_minus)
    check_real(tau, "strengthened level tau", 0, alpha, "(]")
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    low = grid <= 0.5          # R-hat-minus = alpha_hat there, 0 beyond
    rows = []
    chunk = max(1, 10 ** 6 // max(n_minus, n_plus))
    done = 0
    rng = rng_for(seed, "harness.counterexample")
    while done < trials:
        b = min(chunk, trials - done)
        alpha_hat = np.mean(rng.random((b, n_minus)) <= alpha, axis=1)
        # positives drive nothing: R-hat-plus is 1 on lambda >= 1/2 and
        # 1 - alpha_hat_plus below, so the argmin is determined by
        # feasibility; drawn anyway to keep the trial faithful
        alpha_hat_plus = np.mean(rng.random((b, n_plus)) <= alpha, axis=1)
        for i in range(b):
            r_minus = np.where(low, alpha_hat[i], 0.0)
            r_plus = np.where(low & (grid < 0.5), 1.0 - alpha_hat_plus[i], 1.0)
            feasible = r_minus < tau
            idx = int(np.argmin(np.where(feasible, r_plus, np.inf)))
            lam_hat = grid[idx]
            # gamma(alpha) = 1 - alpha, reached by every lambda < 1/2
            excess = exact_risks_prop31(lam_hat, alpha)[1] - (1.0 - alpha)
            rows.append({"trial": done + i, "alpha_hat": float(alpha_hat[i]),
                         "lam_hat": float(lam_hat),
                         "event": bool(alpha_hat[i] >= alpha),
                         "binding": bool(lam_hat > 0.5), "excess": float(excess)})
        done += b

    event_count = sum(r["event"] for r in rows)
    binding_excess = [r["excess"] for r in rows if r["binding"]]
    max_excess_err = max((abs(e - alpha) for e in binding_excess), default=0.0)
    freq = event_count / trials
    exact_prob = binomial_tail_exact(n_minus, alpha, alpha * n_minus)
    lower = min(alpha, 0.25)
    return {
        "rows": rows,
        "alpha": alpha,
        "tau": tau,
        "n_minus": n_minus,
        "n_plus": n_plus,
        "trials": trials,
        "event_count": event_count,
        "event_frequency": freq,
        "binding_count": len(binding_excess),
        "max_excess_error_on_binding": max_excess_err,
        "excess_exact_on_binding": bool(max_excess_err <= 1e-12),
        "mean_excess": float(np.mean([r["excess"] for r in rows])),
        "exact_event_probability": exact_prob,
        "matches_exact_probability":
            bool(abs(freq - exact_prob) <= _three_se(exact_prob, trials)),
        "lower_bound": lower,
        "meets_lower_bound": bool(freq >= lower - _three_se(lower, trials)),
    }


def run_type1_coverage(scenario, dictionary: BaseDictionary, cfg: NPConfig,
                       n_minus: int, n_plus: int, trials: int, mc_draws: int,
                       seed: int, kappa_scale: float = 1.0) -> dict:
    """Frequency of true phi-type-I risk staying at or below alpha.

    kappa_scale scales the concentration margin; 1 is the production
    solver, 0 ablates the margin entirely (the guarantee may then fail).
    """
    check_count(trials, "trials")
    check_real(kappa_scale, "kappa_scale", 0, math.inf, "[)")
    check_count(mc_draws, "mc_draws (Monte Carlo draws)", 2)
    s = cfg.surrogate
    kap = kappa(s.lipschitz, dictionary.m, cfg.delta)
    level = alpha_kappa(cfg.alpha, kappa_scale * kap, n_minus)

    pilot = scenario.draw_negatives(rng_for(seed, "harness.coverage.probe"),
                                    n_minus)
    _, pilot_min = _min_type1(pilot, dictionary, cfg)
    if pilot_min > level:
        raise Infeasible(
            f"pilot minimum {pilot_min} exceeds the strengthened level {level}")

    # closed form for the uniform construction, Monte Carlo for everything
    # else (even when atoms would exist): the coverage experiment reports
    # what a user of an arbitrary scenario would see
    atoms_minus = None
    if getattr(scenario, "kind", None) == "prop31":
        atoms_minus = scenario.population_atoms(dictionary, "minus")

    def one_trial(t: int):
        rng = rng_for(seed, "harness.coverage.draw", t)
        sample = Sample(negatives=scenario.draw_negatives(rng, n_minus),
                        positives=scenario.draw_positives(rng, n_plus))
        try:
            lam = _solve_np(sample, dictionary, cfg, kappa_scale).weights.lam
        except NPConvexError as err:
            return {"trial": t, "error": type(err).__name__}
        if atoms_minus is not None:
            est, hw = atoms_minus.estimate(lam, s, +1.0)
        else:
            rng_mc = rng_for(seed, "harness.coverage.mc", t)
            Z = scenario.draw_negatives(rng_mc, mc_draws)
            est, hw = _mc_estimate(s.eval(dictionary.evaluate_matrix(Z) @ lam))
        return {"trial": t, "error": None, "true_type1": est,
                "half_width": hw, "covered": bool(est <= cfg.alpha + hw)}

    rows = _run_trials(one_trial, trials)
    done = [r for r in rows if r["error"] is None]
    ests = [r["true_type1"] for r in done]
    hws = [r["half_width"] for r in done]
    coverage = sum(r["covered"] for r in done) / trials
    return {
        "rows": rows,
        "trials": trials,
        "completed": len(done),
        "solver_errors": dict(Counter(r["error"] for r in rows if r["error"])),
        "coverage": coverage,
        "target": 1.0 - cfg.delta,
        "meets_target": bool(coverage >= 1.0 - cfg.delta),
        "alpha": cfg.alpha,
        "kappa": kap,
        "kappa_scale": kappa_scale,
        # undefined, and so null, when no trial completed
        "mean_true_type1": float(np.mean(ests)) if ests else None,
        "max_true_type1": float(np.max(ests)) if ests else None,
        "mean_half_width": float(np.mean(hws)) if hws else None,
        "exact_population": atoms_minus is not None,
    }


def run_rate_experiment(scenario, dictionary: BaseDictionary, cfg: NPConfig,
                        n_grid: Sequence[int], trials: int, seed: int,
                        eps_bar: Optional[float] = None,
                        oracle_resolution: float = 1e-4,
                        mc_draws: int = 10 ** 6) -> dict:
    """Excess phi-type-II risk against the two-term 1/sqrt(n) bound.

    Per (n, trial): solve with n^- = n^+ = n, measure
    R-phi-plus(lambda-tilde) - gamma(alpha), both on _population_reference,
    and compare with the bound.
    eps_bar = None estimates epsilon-bar per trial from the probe upper
    bound; pass the analytic value, in [0, 1), when the instance has one.
    Rows with n below the n0 threshold are flagged and excluded from the
    assertion.
    """
    check_count(trials, "trials")
    check_count(len(n_grid), "the number of sample sizes")
    for n in n_grid:
        check_count(n, "n_grid entry")
    if eps_bar is not None:
        check_real(eps_bar, "eps_bar", 0, 1, "[)")
    s = cfg.surrogate
    kap = kappa(s.lipschitz, dictionary.m, cfg.delta)
    minus, plus, gamma_alpha = _population_reference(
        scenario, dictionary, s, cfg.alpha, oracle_resolution, mc_draws, seed)

    def one_trial(q: int):
        n, t = n_grid[q // trials], q % trials
        rng = rng_for(seed, f"harness.rate.n{n}", t)
        sample = Sample(negatives=scenario.draw_negatives(rng, n),
                        positives=scenario.draw_positives(rng, n))
        try:
            sol = solve_np(sample, dictionary, cfg)
        except NPConvexError as err:
            return {"n": n, "trial": t, "error": type(err).__name__}
        eps_val = _eps_bar(eps_bar, sample.negatives, dictionary, cfg, kap)
        r2, hw = plus.estimate(sol.weights.lam, s, -1.0)
        row = {"n": n, "trial": t, "error": None, "excess": r2 - gamma_alpha,
               "half_width": hw, "eps_bar": eps_val, "bound": None,
               "n0": None, "below_n0": True, "ratio": None}
        if 0.0 <= eps_val < 1.0:
            report = n0_and_bound(kap, eps_val, cfg.alpha, n, n, s.value_at_one)
            bound = report.thm42_bound
            row.update(bound=bound, n0=report.n0, below_n0=bool(n < report.n0),
                       ratio=row["excess"] / bound if bound > 0 else None)
        return row

    rows = _run_trials(one_trial, len(n_grid) * trials)

    valid = [r for r in rows if r.get("error") is None]
    asserted = [r for r in valid if not r["below_n0"]]
    all_within = all(r["excess"] <= r["bound"] + r["half_width"]
                     for r in asserted)
    per_n = {}
    for n in n_grid:
        ex = [r["excess"] for r in valid if r["n"] == n]
        if ex:
            per_n[int(n)] = {"mean_excess": float(np.mean(ex)),
                             "median_excess": float(np.median(ex)),
                             "max_excess": float(np.max(ex))}
    slope = None
    pts = [(n, agg["mean_excess"]) for n, agg in per_n.items()
           if agg["mean_excess"] > 0]
    if len(pts) >= 2:
        ls = np.log([p[0] for p in pts])
        le = np.log([p[1] for p in pts])
        slope = float(np.polyfit(ls, le, 1)[0])
    return {
        "rows": rows,
        "gamma_alpha": gamma_alpha,
        "kappa": kap,
        "per_n": per_n,
        "asserted_rows": len(asserted),
        "all_within_bound": bool(all_within),
        "slope": slope,
        "exact_population": minus.n is None,
    }


def run_sampling_scheme(scenario, dictionary: BaseDictionary, cfg: NPConfig,
                        n: int, trials: int, seed: int,
                        eps_bar: Optional[float] = None,
                        tail_thresholds: Optional[Sequence[float]] = None,
                        oracle_resolution: float = 1e-4,
                        mc_draws: int = 10 ** 6) -> dict:
    """Pooled sampling: draw n labeled points, split, solve, check events.

    The joint event is {true phi-type-I <= alpha} and {excess <= the
    sqrt2-inflated bound}, both scored on _population_reference; its
    frequency is compared against 1 - 2 delta - exp(-n(1-p)^2/2) -
    exp(-np^2/2) minus 3 SE.  Realized class counts are cross-checked
    against exact binomial tails.  A given eps_bar lies in [0, 1).
    """
    check_count(trials, "trials")
    check_count(n, "n", 2)
    p = scenario.p
    s = cfg.surrogate
    kap = kappa(s.lipschitz, dictionary.m, cfg.delta)
    # n0_and_bound checks a given eps_bar, before the reference is built
    eps_for_n0 = eps_bar if eps_bar is not None else 0.0
    n0 = n0_and_bound(kap, eps_for_n0, cfg.alpha, n, n, s.value_at_one).n0
    minus, plus, gamma_alpha = _population_reference(
        scenario, dictionary, s, cfg.alpha, oracle_resolution, mc_draws, seed)

    if tail_thresholds is None:
        tail_thresholds = (n * (1.0 - p) / 2.0, n * (1.0 - p),
                           n * (1.0 - p) + 100.0)
    for thr in tail_thresholds:
        check_real(thr, "tail threshold")

    def one_trial(t: int):
        rng = rng_for(seed, "harness.sampling.draw", t)
        X, y = scenario.draw_pooled(rng, n)
        out = {"trial": t, "error": None, "n_minus": int(np.sum(y == -1.0))}
        try:
            sample = split_pooled((X, y))
            assert sample.n_minus + sample.n_plus == n
            sol = solve_np(sample, dictionary, cfg)
        except NPConvexError as err:
            out["error"] = type(err).__name__
            out["joint"] = False
            return out
        lam = sol.weights.lam
        r1, hw1 = minus.estimate(lam, s, +1.0)
        r2, hw2 = plus.estimate(lam, s, -1.0)
        eps_val = _eps_bar(eps_bar, sample.negatives, dictionary, cfg, kap)
        bound = (pooled_bound(kap, eps_val, cfg.alpha, n, p, s.value_at_one)
                 if 0.0 <= eps_val < 1.0 else None)
        # without a bound (eps_bar >= 1) the bound event is False
        event1 = r1 <= cfg.alpha + hw1
        event2 = bound is not None and r2 - gamma_alpha <= bound + hw2
        out.update(type1=r1, excess=r2 - gamma_alpha, eps_bar=eps_val, bound=bound,
                   type1_event=bool(event1), bound_event=bool(event2),
                   joint=bool(event1 and event2))
        return out

    rows = _run_trials(one_trial, trials)
    joint_freq = sum(1 for r in rows if r["joint"]) / trials
    threshold = (1.0 - 2.0 * cfg.delta
                 - math.exp(-n * (1.0 - p) ** 2 / 2.0)
                 - math.exp(-n * p ** 2 / 2.0))
    tails = []
    counts = np.array([r["n_minus"] for r in rows])
    for thr in tail_thresholds:
        observed = float(np.mean(counts >= thr))
        exact = binomial_tail_exact(n, 1.0 - p, thr)
        tails.append({
            "threshold": float(thr),
            "observed_frequency": observed,
            "exact_probability": exact,
            "matches": bool(abs(observed - exact) <= _three_se(exact, trials)),
        })
    return {
        "rows": rows,
        "n": n,
        "p": p,
        "trials": trials,
        "joint_frequency": joint_freq,
        "threshold": threshold,
        "meets_threshold":
            bool(joint_freq >= threshold - _three_se(threshold, trials)),
        "n0": n0,
        "meets_n0_precondition": bool(n > 2.0 * n0 / (1.0 - p)),
        "tails": tails,
        "solver_errors": dict(Counter(r["error"] for r in rows if r["error"])),
        "gamma_alpha": gamma_alpha,
    }


def run_ccp_feasibility(scenario, constraint_bases, objective_coeffs,
                        alpha: float, delta: float, surrogate, n: int,
                        trials: int, validation_draws: int, seed: int,
                        f_star: Optional[float] = None,
                        eps: Optional[float] = None) -> dict:
    """Chance-constraint feasibility of the surrogate-margin solution.

    constraint_bases is a BaseDictionary, or per-row callables that this
    runner wraps as FunctionClassifier bases; the scenario draws are
    (n, d), so each callable gets one row of shape (d,).  Per trial: draw
    n scenario realizations, solve the strengthened surrogate program with
    the linear objective, then estimate the true violation probability on
    fresh draws.  When f_star (the optimum over the population
    surrogate-feasible set) and the instance's epsilon are supplied,
    objective gaps are compared against the 1/sqrt(n) bound, and the
    summary reports the bound's sample-size threshold n0 and whether n
    meets it; nothing is written to stderr.
    """
    check_count(trials, "trials")
    if f_star is not None:
        check_real(f_star, "f_star")
    bases = (constraint_bases if isinstance(constraint_bases, BaseDictionary)
             else BaseDictionary([FunctionClassifier(g) for g in constraint_bases]))
    obj = linear_objective(objective_coeffs)
    kap = kappa(surrogate.lipschitz, bases.m, delta)
    bound = n0 = None
    if f_star is not None and eps is not None:
        bound = ccp_bound(kap, eps, alpha, n, surrogate.value_at_one)
        n0 = n0_and_bound(kap, eps, alpha, n, n, surrogate.value_at_one).n0

    def one_trial(t: int):
        rng = rng_for(seed, "harness.ccp.draw", t)
        draws = scenario.draw_negatives(rng, n)
        G = evaluate_constraint_bases(bases, draws)
        inst = CCPInstance(alpha=alpha, delta=delta, surrogate=surrogate,
                           g_matrix=G, **obj)
        try:
            sol = solve_ccp(inst)
        except NPConvexError as err:
            return {"trial": t, "error": type(err).__name__,
                    "feasible": False}
        fresh = scenario.draw_negatives(
            rng_for(seed, "harness.ccp.validate", t), validation_draws)
        est = chance_feasibility_estimate(sol.weights.lam, bases, fresh, alpha)
        row = {"trial": t, "error": None,
               "violation_rate": est["violation_rate"],
               "feasible": est["feasible_for_original"],
               "objective": sol.objective_value}
        if f_star is not None:
            row["gap"] = sol.objective_value - f_star
        return row

    rows = _run_trials(one_trial, trials)
    feasible_freq = sum(1 for r in rows if r["feasible"]) / trials
    gaps = [r["gap"] for r in rows if r.get("gap") is not None]
    summary = {
        "rows": rows,
        "trials": trials,
        "feasible_frequency": feasible_freq,
        "target": 1.0 - 2.0 * delta,
        "meets_target": bool(feasible_freq >= 1.0 - 2.0 * delta),
        "kappa": kap,
        "mean_violation_rate":
            float(np.mean([r.get("violation_rate", 1.0) for r in rows])),
    }
    if n0 is not None:
        summary.update(n0=n0, meets_n0_precondition=bool(n >= n0))
    if gaps:
        summary["max_gap"] = float(np.max(gaps))
        summary["bound"] = bound
        if bound is not None:
            summary["all_gaps_within_bound"] = bool(max(gaps) <= bound)
    return summary


def np_lemma_oracle(scenario, alpha: float) -> dict:
    """Most powerful level-alpha test for scenarios with a closed-form
    likelihood ratio, reported as the information floor.

    Identical class-conditionals give the degenerate ratio L = 1: the
    optimal test randomizes with mass alpha and has type-II error
    1 - alpha.  Distinct Gaussian means give a threshold test on x with
    zero randomization.
    """
    check_real(alpha, "alpha", 0, 1)
    kind = getattr(scenario, "kind", None)
    if kind not in ("prop31", "gaussian_1d"):
        raise UnknownScenario(
            f"no closed-form likelihood ratio for scenario kind {kind!r}")
    if kind == "prop31" or scenario.params["mu_minus"] == scenario.params["mu_plus"]:
        return {"threshold": 1.0, "randomization": alpha,
                "type2_error": 1.0 - alpha, "direction": 0}
    mu_m = scenario.params["mu_minus"]
    mu_p = scenario.params["mu_plus"]
    sigma = scenario.params["sigma"]
    std = NormalDist()

    def ratio(x: float) -> float:
        return math.exp(((x - mu_m) ** 2 - (x - mu_p) ** 2)
                        / (2.0 * sigma * sigma))

    if mu_p > mu_m:
        z = std.inv_cdf(1.0 - alpha)
        x_star = mu_m + sigma * z
        type2 = std.cdf(z - (mu_p - mu_m) / sigma)
        direction = 1
    else:
        z = std.inv_cdf(alpha)
        x_star = mu_m + sigma * z
        type2 = 1.0 - std.cdf((x_star - mu_p) / sigma)
        direction = -1
    return {"threshold": ratio(x_star), "randomization": 0.0,
            "type2_error": type2, "direction": direction,
            "x_star": x_star}


def oracle_type2_mc(scenario, alpha: float, draws: int, seed: int):
    """Monte Carlo type-II error of the most powerful test, with half-width."""
    check_count(draws, "Monte Carlo draws", 2)
    oracle = np_lemma_oracle(scenario, alpha)
    rng = rng_for(seed, "harness.lemma_oracle")
    if oracle["direction"] == 0:
        reject = rng.random(draws) < alpha
    else:
        x = np.asarray(scenario.draw_positives(rng, draws)).ravel()
        if oracle["direction"] > 0:
            reject = x > oracle["x_star"]
        else:
            reject = x < oracle["x_star"]
    return _mc_estimate(1.0 - reject.astype(float))
