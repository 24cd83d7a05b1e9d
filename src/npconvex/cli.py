"""Command-line entry point producing reproducible JSON/CSV artifacts.

Subcommands: solve (one classification program), ccp (one
chance-constrained program), verify-lemmas (exact binomial sweep), and
experiment (the Monte Carlo harness).  Validation problems exit with
code 2 and runtime failures with code 1; both print a one-line JSON
object {"error": <category>, "message": ...} on stderr.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import datetime
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, bounds
from .ccp import CCPInstance, linear_objective, solve_ccp
from .errors import (DomainError, NonFiniteValue, NPConvexError, SchemaError,
                     UnknownLabel, ValidationFailure)
from .hypothesis import (BaseDictionary, ConstantClassifier, DecisionStump,
                         _quantile_stumps)
from .np_solver import NPConfig, solve_np, split_pooled
from .surrogate import by_name


def load_csv(path):
    """Parse a UTF-8 CSV with a header row into (X, y) or a bare matrix.

    A column named `y` holds labels in {-1, 1}; without one the file is a
    plain feature matrix (scenario draws) and y comes back as None.  A
    leading BOM is skipped.  Rows go through one C parse, or else a
    per-cell parse that accepts every spelling float() accepts and names
    the first bad cell.  Ragged rows, non-numeric cells, an empty or
    non-UTF-8 file raise SchemaError; NaN/inf features raise
    NonFiniteValue; bad labels raise UnknownLabel.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = [c.strip() for c in next((r for r in csv_mod.reader(fh) if r), ())]
            if parsed := header and _loadtxt_block(header, fh):
                return parsed
            fh.seek(0)  # the per-cell parse names the first bad cell
            rows = [r for r in csv_mod.reader(fh) if r]
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err}")
    except (UnicodeDecodeError, csv_mod.Error) as err:
        raise SchemaError(f"{path} is not UTF-8 CSV: {err}")
    if len(rows) < 2:
        raise SchemaError(f"{path} needs a header row and at least one data row")
    if len(set(header)) != len(header):
        raise SchemaError(f"{path} has duplicate column names")
    y_col = header.index("y") if "y" in header else None
    X, y = _parse_cells(path, header, rows[1:], y_col)
    if y_col is not None and len(header) == 1:
        raise SchemaError(f"{path} has labels but no feature columns")
    return X, y


def _loadtxt_block(header, fh):
    """(X, y) from one np.loadtxt parse of the rest of fh, or None for the
    per-cell parse to decide.  numpy splits rows and quoted cells as csv does
    and parses cells as float() does, but refuses spellings such as 1_000."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            block = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError:
            return None
    if (not block.shape[0] or block.shape[1] != len(header)
            or len(set(header)) != len(header) or header == ["y"]):
        return None
    y_col = header.index("y") if "y" in header else None
    X = block if y_col is None else np.delete(block, y_col, axis=1)
    y = None if y_col is None else block[:, y_col].copy()
    if y is not None and not np.all((y == -1.0) | (y == 1.0)):
        return None
    return (X, y) if np.all(np.isfinite(X)) else None


def _parse_cells(path, header, body, y_col):
    feats, labels = [], []
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise SchemaError(f"{path}:{lineno} has {len(row)} cells, expected {len(header)}")
        vals = []
        for name, cell in zip(header, row):
            try:
                vals.append(float(cell))
            except ValueError:
                raise SchemaError(f"{path}:{lineno} column {name!r}: {cell!r} is not a number")
        if y_col is not None:
            labels.append(vals.pop(y_col))
            if labels[-1] not in (-1.0, 1.0):
                raise UnknownLabel(f"{path}:{lineno}: label must be -1 or 1, got {labels[-1]}")
        if not np.isfinite(vals).all():
            raise NonFiniteValue(f"{path}:{lineno} has a non-finite feature")
        feats.append(vals)
    return np.asarray(feats, dtype=float), None if y_col is None else np.asarray(labels)


def _require_labels(X, y, path):
    if y is None:
        raise SchemaError(f"{path} is missing the label column 'y'")
    return X, y


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report(args, **body) -> dict:
    """The report of command args.command: its body, led by the command
    name and version, with a timestamp unless --no-timestamp."""
    report = {"command": args.command, "version": __version__, **body}
    if not args.no_timestamp:
        report["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    return report


def _given(cfg: dict, *keys) -> dict:
    """The optional keys that cfg sets; the rest keep the defaults of the
    runner or constructor they are passed to."""
    return {k: cfg[k] for k in keys if k in cfg}


_NUMBER, _INTEGER = ("a number", (int, float), False), ("an integer", (int,), False)
#: the typed keys of an experiment config, at any level: (JSON type the
#: message names, exact Python types read from it, whether it is a list)
_KEY_TYPES = {
    **dict.fromkeys(("alpha", "delta", "tau", "kappa_scale", "eps_bar", "eps",
                     "oracle_resolution", "f_star", "mu_minus", "mu_plus",
                     "sigma", "p"), _NUMBER),
    **dict.fromkeys(("n", "n_minus", "n_plus", "trials", "grid_size", "mc_draws",
                     "validation_draws"), _INTEGER),
    **dict.fromkeys(("objective", "tail_thresholds", "thresholds"),
                    ("a list of numbers", (int, float), True)),
    "n_grid": ("a list of integers", (int,), True),
    "include_constant": ("true or false", (bool,), False),
}
#: keys whose null keeps the runner's default of None
_NULLABLE = {"tau", "eps_bar", "f_star", "eps", "tail_thresholds"}


def _typed(cfg: dict, where: str = "") -> dict:
    """cfg, or SchemaError naming a typed key that holds another JSON type;
    exact types, so true is no number and "false" no boolean."""
    for key, value in cfg.items():
        if key not in _KEY_TYPES or (value is None and key in _NULLABLE):
            continue
        name, types, is_list = _KEY_TYPES[key]
        items = value if is_list and isinstance(value, list) else [value]
        if isinstance(value, list) != is_list or not all(type(v) in types for v in items):
            raise SchemaError(f"config key {where + key!r} must be {name}, got {value!r}")
    return cfg


def _write_trials_csv(rows, path: Path) -> None:
    keys = sorted({k for r in rows for k in r})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(keys)
        for r in rows:
            writer.writerow(["" if r.get(k) is None else r.get(k) for k in keys])


def _scenario_from_config(cfg: dict):
    from . import harness  # only experiment needs it: solve and ccp skip its imports

    if not isinstance(cfg, dict) or "kind" not in _typed(cfg, "scenario."):
        raise SchemaError("scenario config must be an object with a 'kind'")
    kind = cfg["kind"]
    p = _given(cfg, "p")
    if kind == "prop31":
        return harness.Scenario.prop31(cfg["alpha"], **p)
    if kind == "gaussian_1d":
        return harness.Scenario.gaussian_1d(cfg["mu_minus"], cfg["mu_plus"],
                                            cfg["sigma"], **p)
    if kind == "custom_csv":
        sample = split_pooled(_require_labels(*load_csv(cfg["data"]), cfg["data"]))
        return harness.Scenario.custom_csv(sample.negatives, sample.positives, **p)
    raise SchemaError(f"unknown scenario kind {kind!r}")


def _dictionary_from_config(cfg: dict, name: str) -> BaseDictionary:
    """The stumps of the `name` (dictionary or constraint) config object."""
    if not isinstance(cfg, dict) or "thresholds" not in _typed(cfg, name + "."):
        raise SchemaError(f"{name} config must be an object with 'thresholds'")
    polarities = {"both": (1, -1), "positive": (1,), "negative": (-1,)}.get(
        str(cfg.get("polarities", "both")))
    if polarities is None:
        raise SchemaError(f"{name} polarities must be both/positive/negative")
    bases = []
    if cfg.get("include_constant", True):
        bases.append(ConstantClassifier(-1.0))
    for t in cfg["thresholds"]:
        for pol in polarities:
            bases.append(DecisionStump(0, float(t), pol))
    return BaseDictionary(bases, dim=1)


def _stump_dictionary(X, args) -> BaseDictionary:
    """Stumps at args.stumps quantiles per axis of X, led by the constant
    -1 unless args.no_constant."""
    lead = [] if args.no_constant else [ConstantClassifier(-1.0)]
    stumps, d = _quantile_stumps(X, args.stumps)
    return BaseDictionary([*lead, *stumps], dim=d)


def _program_report(args, dictionary: BaseDictionary, sol, **config) -> int:
    """Write the report that solve and ccp share: the program flags plus
    the command's own config, the dictionary and the solution."""
    _emit(_report(args,
                  config={"alpha": args.alpha, "delta": args.delta,
                          "surrogate": args.surrogate, "stumps": args.stumps,
                          "seed": args.seed, "data": args.data, **config},
                  dictionary=dictionary.to_json(), solution=sol.to_json()),
          args.out)
    return 0


def _cmd_solve(args) -> int:
    X, y = _require_labels(*load_csv(args.data), args.data)
    sample = split_pooled((X, y))
    dictionary = _stump_dictionary(X, args)
    cfg = NPConfig(alpha=args.alpha, delta=args.delta,
                   surrogate=by_name(args.surrogate))
    return _program_report(args, dictionary, solve_np(sample, dictionary, cfg))


def _cmd_ccp(args) -> int:
    X, _ = load_csv(args.data)
    dictionary = _stump_dictionary(X, args)
    coeffs = []
    for c in args.objective.split(","):
        try:
            coeffs.append(float(c))
        except ValueError:
            raise SchemaError(f"--objective entry {c!r} is not a number")
    if len(coeffs) != dictionary.m:
        raise DomainError(
            f"objective has {len(coeffs)} coefficients for {dictionary.m} bases")
    inst = CCPInstance(alpha=args.alpha, delta=args.delta,
                       surrogate=by_name(args.surrogate),
                       g_matrix=dictionary.evaluate_matrix(X),
                       **linear_objective(coeffs))
    return _program_report(args, dictionary, solve_ccp(inst), objective=coeffs)


def _cmd_verify_lemmas(args) -> int:
    config = {"n_max": args.n_max, "q_points": args.q_points,
              "t_points": args.t_points}
    sweep = bounds.sweep_binomial_lemmas(**config)
    _emit(_report(args, config=config, sweep=sweep), args.out)
    return 0 if sweep["all_hold"] else 1


def _experiment_dispatch(kind: str, cfg: dict, seed: int) -> dict:
    from . import harness

    _typed(cfg)
    if kind == "counterexample":
        return harness.run_counterexample(
            cfg["alpha"], cfg["n_minus"], cfg["n_plus"], cfg["trials"], seed,
            **_given(cfg, "tau", "grid_size"))
    surrogate = cfg.get("surrogate", "hinge")
    scenario = _scenario_from_config(cfg["scenario"])
    if kind == "ccp":
        return harness.run_ccp_feasibility(
            scenario, _dictionary_from_config(cfg["constraint"], "constraint"),
            cfg["objective"], cfg["alpha"], cfg["delta"], by_name(surrogate),
            cfg["n"], cfg["trials"], cfg.get("validation_draws", 10 ** 5),
            seed, **_given(cfg, "f_star", "eps"))
    dictionary = _dictionary_from_config(cfg["dictionary"], "dictionary")
    np_cfg = NPConfig(alpha=cfg["alpha"], delta=cfg["delta"],
                      surrogate=by_name(surrogate))
    if kind == "coverage":
        return harness.run_type1_coverage(
            scenario, dictionary, np_cfg, cfg["n_minus"], cfg["n_plus"],
            cfg["trials"], cfg.get("mc_draws", 10 ** 6), seed,
            **_given(cfg, "kappa_scale"))
    common = _given(cfg, "eps_bar", "oracle_resolution", "mc_draws")
    if kind == "rate":
        return harness.run_rate_experiment(
            scenario, dictionary, np_cfg, cfg["n_grid"], cfg["trials"], seed,
            **common)
    if kind == "sampling":
        return harness.run_sampling_scheme(
            scenario, dictionary, np_cfg, cfg["n"], cfg["trials"], seed,
            **common, **_given(cfg, "tail_thresholds"))
    raise SchemaError(f"unknown experiment kind {kind!r}")


def _cmd_experiment(args) -> int:
    def finite(text):  # json reads NaN, Infinity and 1e999 as floats
        if not math.isfinite(float(text)):
            raise SchemaError(f"{args.config} holds {text}, which is not a finite number")
        return float(text)
    try:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"),
                         parse_constant=finite, parse_float=finite)
    except OSError as err:
        raise SchemaError(f"cannot read {args.config}: {err}")
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise SchemaError(f"{args.config} is not valid JSON: {err}")
    if not isinstance(cfg, dict):
        raise SchemaError("experiment config must be a JSON object")
    try:
        summary = _experiment_dispatch(args.kind, cfg, args.seed)
    except KeyError as err:
        raise SchemaError(f"experiment config is missing {err.args[0]!r}")
    rows = summary.pop("rows", None)
    report = _report(args, kind=args.kind, seed=args.seed, config=cfg,
                     summary=summary)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _emit(report, str(out_dir / "summary.json"))
        if rows:
            _write_trials_csv(rows, out_dir / "trials.csv")
    else:
        _emit(report, None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npconvex",
        description="Neyman-Pearson classification by convex aggregation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-identical reports")
        return p

    def program(name, fn, help, data):
        # one program over a stump dictionary of --data: solve and ccp
        p = command(name, fn, help)
        p.add_argument("--data", required=True, help=data)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--delta", type=float, required=True)
        p.add_argument("--surrogate", default="hinge")
        p.add_argument("--stumps", type=int, default=3,
                       help="per-axis threshold count for the dictionary")
        p.add_argument("--no-constant", action="store_true",
                       help="do not prepend the constant base -1")
        return p

    program("solve", _cmd_solve, "solve one classification program",
            "CSV of labeled points (label column y in {-1, 1})")
    program("ccp", _cmd_ccp, "solve one chance-constrained program",
            "CSV of scenario draws (no label column needed)").add_argument(
        "--objective", required=True,
        help="comma-separated coefficients of the linear objective")

    p_ver = command("verify-lemmas", _cmd_verify_lemmas,
                    "exact binomial lemma sweep")
    p_ver.add_argument("--n-max", type=int, default=200)
    p_ver.add_argument("--q-points", type=int, default=50)
    p_ver.add_argument("--t-points", type=int, default=4)

    p_exp = command("experiment", _cmd_experiment, "run a Monte Carlo experiment")
    p_exp.add_argument("--kind", required=True,
                       choices=["counterexample", "coverage", "rate",
                                "sampling", "ccp"])
    p_exp.add_argument("--config", required=True, help="JSON config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NPConvexError as err:
        sys.stderr.write(json.dumps(
            {"error": err.category, "message": str(err)}) + "\n")
        return 2 if isinstance(err, ValidationFailure) else 1


if __name__ == "__main__":
    sys.exit(main())
