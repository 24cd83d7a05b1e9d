"""In-memory span recorder and the wrappers that feed it.

The program has no tracing of its own, so the traced run wraps the public
entry points of each `npconvex` module at run time, from these benchmark
files only.  A span records (id, name, start, end, parent, op); counts are
added at the same boundaries.  Counts that would need a wrapper around a
hot per-row callable (the CCP constraint bases) are computed from array
shapes instead, so the wrapper does not distort the timing.

Span names are "<module>.<what>"; the module part names the layer.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans and counters for one process.  Thread-safe."""

    def __init__(self, prefix: str = "", root_parent=None, op=None):
        self.spans = []  # (id, name, start, end, parent, op)
        self.counts = collections.Counter()
        self.maxima = {}
        self.op = op
        self._prefix = prefix
        self._root_parent = root_parent
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(id, name) of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1][0] if stack else self._root_parent
        sid = f"{self._prefix}{next(self._ids)}"
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def add(self, key: str, value=1) -> None:
        with self._lock:
            self.counts[key] += value

    def note_max(self, key: str, value) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)


def _patch_everywhere(orig, replacement, skip=()) -> None:
    """Point every npconvex module attribute bound to `orig` at `replacement`."""
    for name, mod in list(sys.modules.items()):
        if not (name == "npconvex" or name.startswith("npconvex.")) or mod in skip:
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def _timed(tr: Tracer, name: str, fn, after=None):
    """fn wrapped in a span; `after(result, args, kwargs)` runs outside it."""

    def wrapper(*args, **kwargs):
        with tr.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out, args, kwargs)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def distinct_rows(H: np.ndarray) -> int:
    """Distinct rows of H, found through one random projection per row.

    np.unique(axis=0) is too slow on the (n, 1001) CLI matrices to run
    inside a timed op; two different rows collide only when their
    difference is orthogonal to a random Gaussian vector.
    """
    if H.size == 0:
        return 0
    proj = H @ np.random.default_rng(12345).standard_normal(H.shape[1])
    return int(np.unique(proj).size)


def install(tr: Tracer) -> None:
    """Wrap the entry points of every npconvex module to record into `tr`."""
    from npconvex import (_grids, _solver_core as core, bounds, ccp, harness,
                          hypothesis, np_solver)

    # hypothesis: dictionary build and base evaluation (the H matrices)
    def after_evaluate(H, args, kwargs):
        tr.add("hypothesis.evaluate_calls")
        tr.add("hypothesis.cells", H.size)
        tr.add("hypothesis.h_bytes", H.nbytes)
        tr.add("hypothesis.distinct_rows", distinct_rows(H))

    build = hypothesis.build_stump_dictionary
    _patch_everywhere(build, _timed(tr, "hypothesis.build", build))
    hypothesis.BaseDictionary.evaluate_matrix = _timed(
        tr, "hypothesis.evaluate", hypothesis.BaseDictionary.evaluate_matrix,
        after_evaluate)

    # risk: counting wrappers around the smooth risk forms
    def counted(name, fn, rows):
        def wrapper(lam):
            with tr.span(f"risk.{name}"):
                out = fn(lam)
            tr.add(f"risk.{name}_calls")
            tr.add("risk.matvec_rows", rows)
            return out
        return wrapper

    risk_form = core.risk_form

    def traced_risk_form(H, s, sign, weights=None):
        form = risk_form(H, s, sign, weights)
        if isinstance(form, core.SmoothForm):
            rows = np.shape(H)[0]
            grad = None if form.grad_fn is None else counted("grad", form.grad_fn, rows)
            form = core.SmoothForm(fn=counted("value", form.fn, rows), grad_fn=grad)
        return form

    _patch_everywhere(risk_form, traced_risk_form)

    # _solver_core: route choice, affine enumeration, SLSQP, probe, polish
    solve = core.solve_simplex_program

    def traced_solve(m, objective, constraint=None, level=0.0, **kw):
        if constraint is not None and not (
                isinstance(objective, core.AffineForm)
                and isinstance(constraint, core.AffineForm)):
            tr.add("_solver_core.route_smooth")
        with tr.span("_solver_core.solve"):
            return solve(m, objective, constraint, level, **kw)

    _patch_everywhere(solve, traced_solve)

    affine = core._affine_solve

    def traced_affine(objective, constraint, level, m, feas_tol):
        c = np.asarray(constraint.coeffs)
        inside = int(np.count_nonzero(c <= level - constraint.const))
        tr.add("_solver_core.route_affine")
        tr.add("_solver_core.affine_pairs", inside * (c.size - inside))
        with tr.span("_solver_core.affine"):
            return affine(objective, constraint, level, m, feas_tol)

    _patch_everywhere(affine, traced_affine)

    minimize_simplex = core.minimize_simplex

    def traced_minimize_simplex(*args, **kwargs):
        cur = tr.current()
        name = ("_solver_core.probe" if cur and cur[1] == "_solver_core.solve"
                else "_solver_core.minimize_simplex")
        with tr.span(name):
            return minimize_simplex(*args, **kwargs)

    _patch_everywhere(minimize_simplex, traced_minimize_simplex)

    def after_slsqp(res, args, kwargs):
        tr.add("_solver_core.slsqp_runs")
        tr.add("_solver_core.slsqp_nit", int(getattr(res, "nit", 0)))
        tr.add("_solver_core.slsqp_nfev", int(getattr(res, "nfev", 0)))
        tr.add("_solver_core.slsqp_njev", int(getattr(res, "njev", 0)))
        tr.add("_solver_core.slsqp_success", int(bool(res.success)))

    core.minimize = _timed(tr, "_solver_core.slsqp", core.minimize, after_slsqp)
    polish = core._polish_feasibility
    _patch_everywhere(polish, _timed(tr, "_solver_core.polish", polish))

    # np_solver: solve and grid oracle (points counted as the scan consumes them)
    _patch_everywhere(np_solver.solve_np, _timed(tr, "np_solver.solve", np_solver.solve_np))
    _patch_everywhere(np_solver.grid_oracle_np,
                      _timed(tr, "np_solver.oracle", np_solver.grid_oracle_np))
    scan = np_solver._oracle_scan

    def traced_scan(H_minus, H_plus, s, level, lam_chunks):
        def counting(chunks):
            for chunk in chunks:
                tr.add("np_solver.oracle_points", chunk.shape[0])
                yield chunk
        return scan(H_minus, H_plus, s, level, counting(lam_chunks))

    _patch_everywhere(scan, traced_scan)

    # ccp: solve, base evaluation, feasibility estimate, grid oracle
    _patch_everywhere(ccp.solve_ccp, _timed(tr, "ccp.solve", ccp.solve_ccp))
    _patch_everywhere(
        ccp.evaluate_constraint_bases,
        _timed(tr, "ccp.evaluate_bases", ccp.evaluate_constraint_bases,
               lambda G, a, k: tr.add("ccp.base_calls", G.size)))
    _patch_everywhere(ccp.chance_feasibility_estimate,
                      _timed(tr, "ccp.feasibility", ccp.chance_feasibility_estimate))

    def after_ccp_oracle(sol, args, kwargs):
        inst = args[0]
        res = kwargs.get("resolution", args[1] if len(args) > 1 else None)
        tr.add("ccp.oracle_points", _grids.grid_count(inst.m, max(1, round(1.0 / res))))

    _patch_everywhere(ccp.grid_oracle_ccp,
                      _timed(tr, "ccp.oracle", ccp.grid_oracle_ccp, after_ccp_oracle))

    # _grids: time spent generating grid points, chunks and points handed out
    iter_chunks = _grids.iter_grid_chunks

    def traced_iter_chunks(*args, **kwargs):
        gen = iter_chunks(*args, **kwargs)
        while True:
            with tr.span("_grids.gen"):
                chunk = next(gen, None)
            if chunk is None:
                return
            tr.add("_grids.chunks")
            tr.add("_grids.points", chunk.shape[0])
            yield chunk

    _patch_everywhere(iter_chunks, traced_iter_chunks)

    def after_grid_points(pts, args, kwargs):
        tr.add("_grids.chunks")
        tr.add("_grids.points", pts.shape[0])

    # iter_grid_chunks calls grid_points itself; leave that call unwrapped
    _patch_everywhere(_grids.grid_points,
                      _timed(tr, "_grids.gen", _grids.grid_points, after_grid_points),
                      skip=(_grids,))

    # bounds: the constrained-minimum curve
    def after_gamma(curve, args, kwargs):
        dictionary = args[1]
        res = kwargs.get("resolution", args[4] if len(args) > 4 else 1e-3)
        tr.add("bounds.gamma_points",
               _grids.grid_count(dictionary.m, max(1, round(1.0 / res))))

    _patch_everywhere(bounds.gamma_curve,
                      _timed(tr, "bounds.gamma_curve", bounds.gamma_curve, after_gamma))

    # harness: one span per trial, parented to the pool call that ran it
    run_trials = harness._run_trials

    def traced_run_trials(fn, trials):
        workers = min(harness.worker_count(), trials)
        with tr.span("harness.run_trials") as parent:
            def trial(t):
                with tr.span("harness.trial", parent=parent):
                    return fn(t)
            start = time.perf_counter()
            rows = run_trials(trial, trials)
            wall = time.perf_counter() - start
        tr.add("harness.trials", trials)
        tr.add("harness.trial_errors",
               sum(1 for r in rows if isinstance(r, dict) and r.get("error")))
        tr.add("harness.capacity_s", wall * workers)
        tr.note_max("harness.workers", workers)
        return rows

    _patch_everywhere(run_trials, traced_run_trials)


def install_cli(tr: Tracer) -> None:
    """Wrap the CLI's CSV parser and report writer (inside a CLI process)."""
    from npconvex import cli

    cli.load_csv = _timed(tr, "cli.load_csv", cli.load_csv,
                          lambda out, a, k: tr.add("cli.rows_parsed", out[0].shape[0]))
    cli._emit = _timed(tr, "cli.emit", cli._emit)


def self_times(spans) -> dict:
    """Self time per span id: duration minus the union of its children."""
    children = collections.defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[sid] = (end - start) - covered
    return out


LAYERS = ("hypothesis", "risk", "_solver_core", "np_solver", "ccp", "_grids",
          "bounds", "harness", "cli", "other")

# per-layer metric -> span whose total duration it reports, per op
SPAN_TIMES = {
    "hypothesis.build_s": "hypothesis.build",
    "hypothesis.evaluate_s": "hypothesis.evaluate",
    "risk.value_s": "risk.value",
    "risk.grad_s": "risk.grad",
    "_solver_core.affine_s": "_solver_core.affine",
    "_solver_core.slsqp_s": "_solver_core.slsqp",
    "_solver_core.probe_s": "_solver_core.probe",
    "_solver_core.polish_s": "_solver_core.polish",
    "np_solver.solve_s": "np_solver.solve",
    "np_solver.oracle_s": "np_solver.oracle",
    "ccp.solve_s": "ccp.solve",
    "ccp.evaluate_bases_s": "ccp.evaluate_bases",
    "ccp.feasibility_s": "ccp.feasibility",
    "ccp.oracle_s": "ccp.oracle",
    "_grids.gen_s": "_grids.gen",
    "bounds.gamma_curve_s": "bounds.gamma_curve",
    "cli.import_s": "cli.import",
    "cli.load_csv_s": "cli.load_csv",
    "cli.emit_s": "cli.emit",
}
# per-layer metric -> (counter, unit), reported per op
COUNTS = {
    "hypothesis.evaluate_calls": ("hypothesis.evaluate_calls", "count/op"),
    "hypothesis.cells": ("hypothesis.cells", "count/op"),
    "hypothesis.distinct_rows": ("hypothesis.distinct_rows", "count/op"),
    "risk.value_calls": ("risk.value_calls", "count/op"),
    "risk.grad_calls": ("risk.grad_calls", "count/op"),
    "risk.matvec_rows": ("risk.matvec_rows", "count/op"),
    "_solver_core.route_affine": ("_solver_core.route_affine", "count/op"),
    "_solver_core.route_smooth": ("_solver_core.route_smooth", "count/op"),
    "_solver_core.affine_pairs": ("_solver_core.affine_pairs", "count/op"),
    "_solver_core.slsqp_runs": ("_solver_core.slsqp_runs", "count/op"),
    "_solver_core.slsqp_nit": ("_solver_core.slsqp_nit", "count/op"),
    "_solver_core.slsqp_nfev": ("_solver_core.slsqp_nfev", "count/op"),
    "_solver_core.slsqp_njev": ("_solver_core.slsqp_njev", "count/op"),
    "np_solver.oracle_points": ("np_solver.oracle_points", "count/op"),
    "ccp.base_calls": ("ccp.base_calls", "count/op"),
    "ccp.oracle_points": ("ccp.oracle_points", "count/op"),
    "_grids.chunks": ("_grids.chunks", "count/op"),
    "_grids.points": ("_grids.points", "count/op"),
    "bounds.gamma_points": ("bounds.gamma_points", "count/op"),
    "harness.trials": ("harness.trials", "count/op"),
    "harness.trial_errors": ("harness.trial_errors", "count/op"),
    "cli.rows_parsed": ("cli.rows_parsed", "count/op"),
    "cli.report_bytes": ("cli.report_bytes", "bytes/op"),
}


def layer_of(name: str) -> str:
    return "other" if name == "op" else name.split(".", 1)[0]


def summarize(tr: Tracer, untraced, traced) -> dict:
    """Per-layer metrics of a traced pass, as {name: (value, unit)}.

    `untraced` and `traced` are the latencies of the same ops run without
    and with the wrappers.  Layer self time is shown as a share of total
    op time; with the harness pool, trials overlap, so shares can sum to
    more than one.
    """
    ops = max(len(traced), 1)
    op_time = sum(traced)
    total = collections.Counter()
    for _, name, start, end, _, _ in tr.spans:
        total[name] += end - start
    out = {m: (total[span] / ops, "s/op") for m, span in SPAN_TIMES.items()}
    c = tr.counts
    for m, (key, unit) in COUNTS.items():
        out[m] = (c[key] / ops, unit)
    out["hypothesis.h_mb"] = (c["hypothesis.h_bytes"] / 2**20 / ops, "MB/op")
    runs = c["_solver_core.slsqp_runs"]
    out["_solver_core.slsqp_success_frac"] = (
        c["_solver_core.slsqp_success"] / runs if runs else 0.0, "ratio")
    out["harness.workers"] = (tr.maxima.get("harness.workers", 0), "count")
    capacity = c["harness.capacity_s"]
    out["harness.busy_frac"] = (total["harness.trial"] / capacity if capacity else 0.0,
                                "ratio")
    own = self_times(tr.spans)
    share = collections.Counter()
    for sid, name, *_ in tr.spans:
        share[layer_of(name)] += own[sid]
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (share[layer] / op_time if op_time else 0.0, "ratio")
    out["trace.untraced_s"] = (sum(untraced), "s")
    out["trace.traced_s"] = (op_time, "s")
    out["trace.overhead_frac"] = (op_time / sum(untraced) - 1.0, "ratio")
    return out


def dump(spans, path: str) -> None:
    """Write spans as JSON lines: one [id, name, start, end, parent, op] each."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(list(s)) + "\n")
