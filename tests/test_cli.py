"""Command-line interface: parsing, reports, exit codes, determinism."""

from __future__ import annotations

import inspect
import json

import numpy as np
import pytest

from npconvex import harness
from npconvex.cli import load_csv, main
from npconvex.hypothesis import ConstantClassifier, DecisionStump
from npconvex.surrogate import hinge


@pytest.fixture()
def labeled_csv(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "train.csv"
    lines = ["x0,y"]
    for x in rng.uniform(0, 1, 4000):
        lines.append(f"{x:.6f},-1")
    for x in np.clip(rng.uniform(0.3, 1.3, 4000), 0, 1):
        lines.append(f"{x:.6f},1")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def draws_csv(tmp_path):
    rng = np.random.default_rng(11)
    path = tmp_path / "draws.csv"
    lines = ["x0"] + [f"{x:.6f}" for x in rng.uniform(0, 1, 3000)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_csv_labeled(labeled_csv):
    X, y = load_csv(labeled_csv)
    assert X.shape == (8000, 1)
    assert set(np.unique(y)) == {-1.0, 1.0}


def test_load_csv_feature_only(draws_csv):
    X, y = load_csv(draws_csv)
    assert y is None
    assert X.shape == (3000, 1)


def test_load_csv_schema_errors(tmp_path):
    from npconvex.errors import NonFiniteValue, SchemaError, UnknownLabel

    f = tmp_path / "bad.csv"
    f.write_text("x0,y\n0.1\n", encoding="utf-8")  # ragged row
    with pytest.raises(SchemaError):
        load_csv(f)
    f.write_text("x0,y\n0.1,oops\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_csv(f)
    f.write_text("x0,x0\n0.1,0.2\n", encoding="utf-8")  # duplicate header
    with pytest.raises(SchemaError):
        load_csv(f)
    f.write_text("x0,y\n", encoding="utf-8")  # no data rows
    with pytest.raises(SchemaError):
        load_csv(f)
    f.write_text("x0,y\n0.1,0\n", encoding="utf-8")
    with pytest.raises(UnknownLabel):
        load_csv(f)
    f.write_text("x0,y\nnan,1\n", encoding="utf-8")
    with pytest.raises(NonFiniteValue):
        load_csv(f)
    with pytest.raises(SchemaError):
        load_csv(tmp_path / "missing.csv")


def test_solve_report(labeled_csv, tmp_path):
    out = tmp_path / "solve.json"
    rc = main(["solve", "--data", str(labeled_csv), "--alpha", "0.45",
               "--delta", "0.1", "--stumps", "3", "--no-timestamp",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["command"] == "solve"
    sol = report["solution"]
    assert sol["status"] == "optimal"
    assert 0.0 <= sol["gap"] <= 1e-12
    assert abs(sum(sol["weights"]) - 1.0) < 1e-9
    assert sol["r_minus_phi"] <= sol["alpha_kappa"] + 1e-8
    assert "timestamp" not in report


def test_solve_timestamp_present_by_default(labeled_csv, tmp_path, capsys):
    rc = main(["solve", "--data", str(labeled_csv), "--alpha", "0.45",
               "--delta", "0.1", "--stumps", "3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert "timestamp" in report


def test_solve_requires_labels(draws_csv, capsys):
    rc = main(["solve", "--data", str(draws_csv), "--alpha", "0.45",
               "--delta", "0.1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema"


def test_solve_bad_label_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("x0,y\n0.1,0\n0.2,1\n", encoding="utf-8")
    rc = main(["solve", "--data", str(f), "--alpha", "0.45", "--delta", "0.1"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "unknown_label"


def test_solve_non_finite_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("x0,y\nnan,1\n0.2,-1\n", encoding="utf-8")
    rc = main(["solve", "--data", str(f), "--alpha", "0.45", "--delta", "0.1"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "non_finite"


def test_solve_runtime_failure_exit_code(labeled_csv, capsys):
    # alpha so tight the strengthened level goes negative
    rc = main(["solve", "--data", str(labeled_csv), "--alpha", "0.05",
               "--delta", "0.1"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "sample_too_small"


def test_ccp_report(draws_csv, tmp_path):
    out = tmp_path / "ccp.json"
    rc = main(["ccp", "--data", str(draws_csv), "--alpha", "0.45",
               "--delta", "0.1", "--stumps", "2",
               "--objective", "0.5,-0.2,0.1,0.3,-0.4",
               "--no-timestamp", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    sol = report["solution"]
    assert sol["status"] == "optimal"
    assert 0.0 <= sol["gap"] <= 1e-12
    assert sol["empirical_constraint_value"] <= sol["margin_level"] + 1e-8


def test_ccp_objective_length_mismatch(draws_csv, capsys):
    rc = main(["ccp", "--data", str(draws_csv), "--alpha", "0.45",
               "--delta", "0.1", "--stumps", "2", "--objective", "1.0,2.0"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "domain"


@pytest.mark.parametrize("objective, category", [
    ("0.4,abc,0.1,0.3,-0.4", "schema"),
    ("0.4,nan,0.1,0.3,-0.4", "domain"),
    ("nan,nan,nan,nan,nan", "domain"),
    ("0.4,inf,0.1,0.3,-0.4", "domain"),
])
def test_ccp_objective_entries_must_be_finite_numbers(draws_csv, capsys, objective, category):
    rc = main(["ccp", "--data", str(draws_csv), "--alpha", "0.45",
               "--delta", "0.1", "--stumps", "2", "--objective", objective])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == category


def test_verify_lemmas_report(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["verify-lemmas", "--n-max", "30", "--q-points", "8",
               "--t-points", "2", "--no-timestamp", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["sweep"]["all_hold"]
    assert report["sweep"]["checks"] == 30 * 8 * 3


def test_experiment_counterexample(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.25, "n_minus": 300, "n_plus": 300,
                               "trials": 100}), encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = main(["experiment", "--kind", "counterexample", "--config", str(cfg),
               "--seed", "3", "--no-timestamp", "--out", str(out_dir)])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["kind"] == "counterexample"
    assert summary["summary"]["trials"] == 100
    trials = (out_dir / "trials.csv").read_text().strip().splitlines()
    assert len(trials) == 101  # header + one row per trial
    assert trials[0].split(",")[0] == "alpha_hat"


def test_experiment_config_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json", encoding="utf-8")
    rc = main(["experiment", "--kind", "counterexample", "--config", str(cfg)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "schema"
    cfg.write_text(json.dumps({"alpha": 0.25}), encoding="utf-8")
    rc = main(["experiment", "--kind", "counterexample", "--config", str(cfg)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "schema"


def test_byte_identical_reruns(labeled_csv, draws_csv, tmp_path):
    pairs = []
    for tag in ("a", "b"):
        s = tmp_path / f"solve_{tag}.json"
        c = tmp_path / f"ccp_{tag}.json"
        v = tmp_path / f"ver_{tag}.json"
        assert main(["solve", "--data", str(labeled_csv), "--alpha", "0.45",
                     "--delta", "0.1", "--seed", "9", "--no-timestamp",
                     "--out", str(s)]) == 0
        assert main(["ccp", "--data", str(draws_csv), "--alpha", "0.45",
                     "--delta", "0.1", "--stumps", "1", "--objective",
                     "0.3,-0.1,0.2", "--seed", "9", "--no-timestamp",
                     "--out", str(c)]) == 0
        assert main(["verify-lemmas", "--n-max", "10", "--q-points", "4",
                     "--t-points", "2", "--no-timestamp", "--out",
                     str(v)]) == 0
        pairs.append((s.read_bytes(), c.read_bytes(), v.read_bytes()))
    assert pairs[0] == pairs[1]


def test_experiment_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.3, "n_minus": 200, "n_plus": 200,
                               "trials": 50}), encoding="utf-8")
    blobs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / f"out_{tag}"
        assert main(["experiment", "--kind", "counterexample", "--config",
                     str(cfg), "--seed", "17", "--no-timestamp", "--out",
                     str(out_dir)]) == 0
        blobs.append(((out_dir / "summary.json").read_bytes(),
                      (out_dir / "trials.csv").read_bytes()))
    assert blobs[0] == blobs[1]


def test_experiment_ccp_is_the_harness_run_on_stump_rows(tmp_path):
    cfg = {"scenario": {"kind": "prop31", "alpha": 0.25},
           "constraint": {"thresholds": [0.5], "polarities": "positive"},
           "objective": [1.0, 0.0], "alpha": 0.25, "delta": 0.1,
           "n": 3000, "trials": 4, "validation_draws": 3000}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    blobs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / f"out_{tag}"
        assert main(["experiment", "--kind", "ccp", "--config", str(path),
                     "--seed", "4", "--no-timestamp", "--out", str(out_dir)]) == 0
        blobs.append(((out_dir / "summary.json").read_bytes(),
                      (out_dir / "trials.csv").read_bytes()))
    assert blobs[0] == blobs[1]
    # the CLI passes its dictionary through; the same bases evaluated
    # one scenario row at a time give the same summary
    def per_row(base):
        return lambda row: float(base.evaluate_batch(
            np.asarray(row, dtype=float).reshape(1, -1))[0])

    bases = [per_row(ConstantClassifier(-1.0)), per_row(DecisionStump(0, 0.5, 1))]
    direct = harness.run_ccp_feasibility(
        harness.Scenario.prop31(0.25), bases, [1.0, 0.0], 0.25, 0.1, hinge(),
        3000, 4, 3000, 4)
    direct.pop("rows")
    summary = json.loads(blobs[0][0])["summary"]
    assert summary == json.loads(json.dumps(direct))
    assert summary["trials"] == 4


def test_experiment_dictionaries_check_the_scenario_dimension(tmp_path, capsys):
    # a config dictionary is one-dimensional; ccp checks it against the
    # scenario rows as the NP kinds do, instead of reading axis 0 of wider rows
    data = tmp_path / "wide.csv"
    data.write_text("x0,x1,y\n0.1,0.2,-1\n0.7,0.4,1\n0.3,0.9,-1\n", encoding="utf-8")
    scenario = {"kind": "custom_csv", "data": str(data)}
    configs = {
        "ccp": {"scenario": scenario, "constraint": {"thresholds": [0.5]},
                "objective": [1.0, 0.0, 0.0], "alpha": 0.25, "delta": 0.1,
                "n": 5000, "trials": 1, "validation_draws": 50},
        "coverage": {"scenario": scenario, "dictionary": {"thresholds": [0.5]},
                     "alpha": 0.25, "delta": 0.1, "n_minus": 5000, "n_plus": 5000,
                     "trials": 1, "mc_draws": 50},
    }
    for kind, cfg in configs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["experiment", "--kind", kind, "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "dimension_mismatch"


def test_load_csv_block_parse_matches_cell_parse(tmp_path):
    from npconvex.cli import _parse_block, _parse_cells

    rng = np.random.default_rng(4)
    f = tmp_path / "mixed.csv"
    lines = ["a, y ,b"] + [f"{u:.17g},{lab},\"{v:.17g}\"" for u, lab, v in
                            zip(rng.normal(size=50), rng.choice([-1, 1], 50),
                                rng.uniform(size=50))]
    lines[3] = "1_000, +1 , 5."  # float() syntax that numpy parses the same way
    f.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
    X, y = load_csv(f)
    rows = [line.replace('"', "").split(",") for line in lines[1:]]
    X_ref, y_ref = _parse_cells(f, ["a", "y", "b"], rows, 1)
    X_block, y_block = _parse_block(["a", "y", "b"], rows, 1)
    assert X.tobytes() == X_ref.tobytes() == X_block.tobytes()
    assert y.tobytes() == y_ref.tobytes() == y_block.tobytes()
    assert X.shape == (50, 2) and X[2, 0] == 1000.0 and y[2] == 1.0


def test_load_csv_names_the_first_bad_line(tmp_path):
    from npconvex.errors import NonFiniteValue, SchemaError, UnknownLabel

    f = tmp_path / "bad.csv"
    good = ["0.1,1", "0.2,-1"] * 3
    cases = [("0.3,2", UnknownLabel, ":4: label must be -1 or 1, got 2.0"),
             ("inf,1", NonFiniteValue, ":4 has a non-finite feature"),
             ("0.3", SchemaError, ":4 has 1 cells, expected 2"),
             ("0.3,x", SchemaError, ":4 column 'y': 'x' is not a number")]
    for bad, err, message in cases:
        # the bad row is line 4; a second bad row later must not be reported
        lines = ["x0,y", *good[:2], bad, *good[2:], "nan,0"]
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(err) as info:
            load_csv(f)
        assert str(info.value) == f"{f}{message}"
    f.write_text("y\n1\n-1\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="labels but no feature columns"):
        load_csv(f)


@pytest.mark.parametrize("no_constant", [False, True])
def test_no_constant_drops_the_constant_base(labeled_csv, draws_csv, tmp_path,
                                             no_constant):
    flag = ["--no-constant"] if no_constant else []
    m = 40 + (not no_constant)  # 20 thresholds, two polarities each
    commands = {
        "solve": ["--data", str(labeled_csv), "--stumps", "3"],
        "ccp": ["--data", str(draws_csv), "--stumps", "20",
                "--objective=" + ",".join(f"{(-1) ** j * 0.1 * j:g}" for j in range(m))],
    }
    for command, extra in commands.items():
        out = tmp_path / f"{command}.json"
        assert main([command, "--alpha", "0.45", "--delta", "0.1", *extra, *flag,
                     "--no-timestamp", "--out", str(out)]) == 0
        bases = json.loads(out.read_text())["dictionary"]["bases"]
        kinds = [b["kind"] for b in bases]
        if no_constant:
            assert "constant" not in kinds
        else:
            assert bases[0] == {"kind": "constant", "value": -1.0}
            assert kinds.count("constant") == 1


@pytest.mark.parametrize("kind, cfg, defaults", [
    ("counterexample", {"alpha": 0.25, "n_minus": 200, "n_plus": 200, "trials": 40},
     (harness.run_counterexample, ("grid_size",))),
    ("rate", {"scenario": {"kind": "prop31", "alpha": 0.3},
              "dictionary": {"thresholds": [0.3], "polarities": "positive"},
              "alpha": 0.4, "delta": 0.1, "n_grid": [2000, 4000], "trials": 2},
     (harness.run_rate_experiment, ("oracle_resolution", "mc_draws"))),
])
def test_experiment_defaults_live_in_the_runners(tmp_path, kind, cfg, defaults):
    # a config that omits the optional keys runs at the runner's and the
    # scenario's own defaults, so the CLI states none of them again
    runner, keys = defaults
    params = inspect.signature(runner).parameters
    full = {**cfg, **{k: params[k].default for k in keys}}
    if "scenario" in cfg:
        p = inspect.signature(harness.Scenario.prop31).parameters["p"].default
        full["scenario"] = {**cfg["scenario"], "p": p}
    summaries = []
    for tag, config in (("omitted", cfg), ("set", full)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / tag
        assert main(["experiment", "--kind", kind, "--config", str(path),
                     "--seed", "5", "--no-timestamp", "--out", str(out)]) == 0
        summaries.append(json.loads((out / "summary.json").read_text())["summary"])
    assert summaries[0] == summaries[1]


def test_experiment_domain_errors_exit_two(tmp_path, capsys):
    # zero Monte Carlo draws and a zero oracle resolution are domain errors
    # with exit code 2, not tracebacks
    base = {"scenario": {"kind": "gaussian_1d", "mu_minus": 0.0, "mu_plus": 2.0,
                         "sigma": 1.0},
            "dictionary": {"thresholds": [1.0]}, "alpha": 0.3, "delta": 0.1,
            "n_grid": [200], "trials": 1}
    for extra in ({"mc_draws": 0}, {"mc_draws": 1000, "oracle_resolution": 0}):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**base, **extra}), encoding="utf-8")
        assert main(["experiment", "--kind", "rate", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "domain"
