"""Command-line interface: parsing, reports, exit codes, determinism."""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from npconvex import harness
from npconvex.cli import _parse_cells, load_csv, main
from npconvex.errors import DomainError, Infeasible
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


@pytest.mark.parametrize("sizes", [["--n-max", "0"], ["--q-points", "0"],
                                   ["--t-points", "0"], ["--n-max", "-3"],
                                   ["--n-max", "100001"]])
def test_verify_lemmas_rejects_empty_or_oversized_sweeps(capsys, sizes):
    # an empty sweep used to end in a traceback, and an n_max above the exact
    # summation cap ran every smaller n before the cap refused it
    assert main(["verify-lemmas", *sizes, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "domain"


@pytest.mark.parametrize("argv, config, digest", [
    (["verify-lemmas", "--n-max", "40", "--q-points", "10", "--t-points", "4"], None,
     "5dcce868dcc88d14a7989eb4aa6f75bdf7b9366df6e1cf5d4aac86526bf1f258"),
    (["experiment", "--kind", "counterexample", "--seed", "3"],
     {"alpha": 0.25, "n_minus": 200, "n_plus": 200, "trials": 40},
     "6d83011b725b21d84b6a96442bbe0ba492f13317b8be79f28a313deac30c4700"),
])
def test_verification_reports_are_pinned(tmp_path, capsys, argv, config, digest):
    # both reports come from pure-Python or element-wise numpy arithmetic, so
    # their bytes do not depend on the BLAS; a change that moves them must
    # update the digest and say why
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [*argv, "--config", str(path)]
    assert main([*argv, "--no-timestamp"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == digest


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


def _cell_parse(path):
    """load_csv's reference: every non-empty csv row through _parse_cells."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [r for r in csv.reader(fh) if r]
    header = [c.strip() for c in rows[0]]
    return _parse_cells(path, header, rows[1:], header.index("y") if "y" in header else None)


@pytest.fixture()
def cell_parse_calls(monkeypatch):
    """The arguments of every _parse_cells call load_csv makes."""
    from npconvex import cli

    calls = []
    parse = cli._parse_cells
    monkeypatch.setattr(cli, "_parse_cells", lambda *a: calls.append(a) or parse(*a))
    return calls


def test_load_csv_block_parse_matches_cell_parse(tmp_path, cell_parse_calls):
    rng = np.random.default_rng(4)
    f = tmp_path / "mixed.csv"
    lines = ["a, y ,b"] + [f"{u:.17g},{lab},\"{v:.17g}\"" for u, lab, v in
                            zip(rng.normal(size=50), rng.choice([-1, 1], 50),
                                rng.uniform(size=50))]
    lines[3] = " +1000 , +1 , 5."  # float() syntax that numpy parses the same way
    f.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
    X_ref, y_ref = _cell_parse(f)
    X, y = load_csv(f)
    assert not cell_parse_calls  # the one C parse read the whole block
    assert X.tobytes() == X_ref.tobytes() and y.tobytes() == y_ref.tobytes()
    assert X.shape == (50, 2) and X[2, 0] == 1000.0 and y[2] == 1.0


BY_C, BY_CELLS = "one C parse", "per-cell parse"
#: file text -> the parse that returns (X, y), or the error class and
#: message suffix that load_csv raised before it had a C parse
_PARSE_CASES = {
    "hash_row": ("x0,y\n0.1,1\n#0.2,-1\n",
                 ("SchemaError", ":3 column 'x0': '#0.2' is not a number")),
    "whitespace_row": ("x0,y\n0.1,1\n \n0.2,-1\n", ("SchemaError", ":3 has 1 cells, expected 2")),
    "whitespace_row_one_column": ("x0\n1\n\t\n2\n",
                                  ("SchemaError", ":3 column 'x0': '\\t' is not a number")),
    "blank_rows": ("\nx0,y\n\n0.1,1\n\n\n0.2,-1\n\n", BY_C),
    "crlf": ("x0,y\r\n0.1,1\r\n0.2,-1\r\n", BY_C),
    "lone_cr": ("x0,y\r0.1,1\r0.2,-1", BY_C),
    "quoted": ('"x0","y"\n"0.1","1"\n0.2,"-1"\n', BY_C),
    "quoted_newline": ('x0,y\n"0.1\n",1\n"\r\n0.2","-1"\n', BY_C),
    "quoted_newline_in_a_number": ('x0,y\n"0.\n1",1\n',
                                   ("SchemaError", ":2 column 'x0': '0.\\n1' is not a number")),
    "underscore": ("x0,y\n1_000,1\n0.2,-1\n", BY_CELLS),
    "padded_sign": ("x0,y\n +1 , +1 \n-2, -1\n", BY_C),
    "trailing_comma": ("x0,y\n0.1,1,\n", ("SchemaError", ":2 has 3 cells, expected 2")),
    "trailing_comma_everywhere": ("x0,y,\n0.1,1,\n",
                                  ("SchemaError", ":2 column '': '' is not a number")),
    "bom": ("\ufeffx0,y\n0.1,1\n0.2,-1\n", BY_C),
    "bom_before_y": ("\ufeffy,x0\n1,0.1\n", BY_C),  # the BOM is not part of "y"
    "bom_before_y_cells": ("\ufeffy,x0\n1,1_000\n", BY_CELLS),
    "header_only": ("x0,y\n\n", ("SchemaError", " needs a header row and at least one data row")),
    "one_row_one_feature": ("x0\n0.5\n", BY_C),
    "one_row_labeled": ("x0,y\n0.5,-1\n", BY_C),
    "overflow_to_inf": ("x0,y\n0.1,1\n1e400,-1\n",
                        ("NonFiniteValue", ":3 has a non-finite feature")),
    "duplicate_header": ("x0,x0\n0.1,0.2\n", ("SchemaError", " has duplicate column names")),
    "labels_only": ("y\n1\n-1\n", ("SchemaError", " has labels but no feature columns")),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_PARSE_CASES))
def test_load_csv_c_parse_agrees_with_the_cell_parse(tmp_path, cell_parse_calls, case):
    from npconvex import errors

    text, outcome = _PARSE_CASES[case]
    f = tmp_path / "case.csv"
    f.write_bytes(text.encode("utf-8"))
    if outcome not in (BY_C, BY_CELLS):
        with pytest.raises(getattr(errors, outcome[0])) as info:
            load_csv(f)
        assert str(info.value) == f"{f}{outcome[1]}"
        return
    X, y = load_csv(f)
    assert len(cell_parse_calls) == (outcome == BY_CELLS)
    X_ref, y_ref = _cell_parse(f)
    assert X.shape == X_ref.shape and X.tobytes() == X_ref.tobytes()
    assert (y is None) == (y_ref is None)
    if y is not None:
        assert y.tobytes() == y_ref.tobytes()


def test_load_csv_peaks_near_its_output(tmp_path):
    """The CSV reader holds the parsed block, not a string per cell.

    A 4e4 x 11 labeled CSV (3.5 MB of output arrays) peaked at 39.5 MB of
    traced allocations (11x the output) when every cell went through
    csv.reader's list of strings; one np.loadtxt block peaks at 7.5 MB.
    """
    rng = np.random.default_rng(5)
    f = tmp_path / "wide.csv"
    n, d = 20_000, 10
    body = np.column_stack([rng.normal(size=(2 * n, d)), np.repeat([-1.0, 1.0], n)])
    with open(f, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{j}" for j in range(d)] + ["y"]) + "\n")
        np.savetxt(fh, body, fmt=["%.6f"] * d + ["%d"], delimiter=",")
    tracemalloc.start()
    try:
        X, y = load_csv(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.shape == (2 * n, d) and np.array_equal(y, body[:, d])
    assert peak < 4 * (X.nbytes + y.nbytes)


def test_undecodable_or_oversized_input_is_a_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    deep = b"x0,y\n" + b"0.5,1\n" * 5000  # past the first decoded chunk
    for data in (b"x0,y\n0.1,1\n0.\xff2,-1\n", deep + b"\xff,1\n"):
        bad.write_bytes(data)
        assert main(["solve", "--data", str(bad), "--alpha", "0.4", "--delta", "0.1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema" and "not UTF-8" in err["message"]
    # a cell over csv's field size limit reaches the per-cell parse
    bad.write_text("x0,y\n" + "x" * (csv.field_size_limit() + 1) + ",1\n", encoding="utf-8")
    assert main(["ccp", "--data", str(bad), "--alpha", "0.4", "--delta", "0.1",
                 "--objective", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "schema"
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"alpha": 0.25, "note": "\xff"}')
    assert main(["experiment", "--kind", "counterexample", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "schema"


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


@pytest.mark.parametrize("key, value", [("mu_minus", math.nan), ("mu_plus", math.inf),
                                        ("sigma", math.inf)])
def test_experiment_non_finite_gaussian_parameter_is_a_domain_error(
        tmp_path, capsys, key, value):
    # NaN negatives sit above every threshold, so a NaN mean once reported
    # full coverage.  The scenario refuses it; a config cannot reach the
    # scenario with it, as the CLI refuses the JSON constant first
    scenario = {"kind": "gaussian_1d", "mu_minus": 0.0, "mu_plus": 2.0, "sigma": 1.0}
    with pytest.raises(DomainError, match="finite"):
        harness.Scenario.gaussian_1d(**{k: v for k, v in {**scenario, key: value}.items()
                                        if k != "kind"})
    cfg = {"scenario": {**scenario, key: value}, "dictionary": {"thresholds": [1.0]},
           "alpha": 0.3, "delta": 0.1, "n_minus": 100, "n_plus": 100, "trials": 2,
           "mc_draws": 1000}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["experiment", "--kind", "coverage", "--config", str(path)]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "schema" and json.dumps(value) in report["message"]


@pytest.mark.parametrize("kind, extra", [("rate", {"n_grid": [200]}),
                                         ("sampling", {"n": 200})])
def test_experiment_with_infinite_gamma_is_infeasible(tmp_path, capsys, kind, extra):
    # logit phi-type-I risk is at least phi(-1) = 0.452 on [-1, 1]-valued
    # bases, so no aggregate meets alpha = 0.4 and there is no excess to score
    cfg = {"scenario": {"kind": "prop31", "alpha": 0.3},
           "dictionary": {"thresholds": [0.3]}, "alpha": 0.4, "delta": 0.1,
           "surrogate": "logit", "trials": 2, "oracle_resolution": 1e-2, **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["experiment", "--kind", kind, "--config", str(path)]) == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "infeasible" and "gamma(0.4)" in report["message"]


def test_experiment_nan_threshold_is_a_domain_error(tmp_path, capsys):
    # a NaN stump would be the constant -polarity, so the stump refuses it;
    # a config cannot reach the stump with it, as the CLI refuses the JSON
    # constant first
    with pytest.raises(DomainError, match="NaN"):
        DecisionStump(0, math.nan, 1)
    cfg = ('{"scenario": {"kind": "gaussian_1d", "mu_minus": 0.0, "mu_plus": 2.0, '
           '"sigma": 1.0}, "dictionary": {"thresholds": [1.0, NaN]}, "alpha": 0.3, '
           '"delta": 0.1, "n_grid": [200], "trials": 1}')
    path = tmp_path / "cfg.json"
    path.write_text(cfg, encoding="utf-8")
    assert main(["experiment", "--kind", "rate", "--config", str(path)]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "schema" and "NaN" in report["message"]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_experiment_configs_refuse_non_finite_numbers(tmp_path, capsys, constant):
    # a NaN kappa_scale made the constraint level NaN, and the coverage run
    # still exited 0 with "coverage": 1.0 and "meets_target": true
    cfg = json.dumps(_SMALL_EXPERIMENTS["coverage"])[:-1] + f', "kappa_scale": {constant}}}'
    path = tmp_path / "cfg.json"
    path.write_text(cfg, encoding="utf-8")
    assert main(["experiment", "--kind", "coverage", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    report = json.loads(err[0])
    assert report["error"] == "schema" and constant in report["message"]


@pytest.mark.parametrize("where, key, value", [
    ("dictionary", "thresholds", ["abc"]),
    ("dictionary", "thresholds", 0.5),
    (None, "alpha", "0.3"),
    ("scenario", "sigma", "1"),
    (None, "trials", 1.0),
    ("dictionary", "include_constant", "false"),
])
def test_experiment_config_values_of_the_wrong_type_are_schema_errors(
        tmp_path, capsys, where, key, value):
    cfg = {"scenario": {"kind": "gaussian_1d", "mu_minus": 0.0, "mu_plus": 2.0,
                        "sigma": 1.0},
           "dictionary": {"thresholds": [1.0]}, "alpha": 0.3, "delta": 0.1,
           "n_grid": [200], "trials": 1}
    (cfg if where is None else cfg[where])[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["experiment", "--kind", "rate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    report = json.loads(err[0])
    assert report["error"] == "schema"
    assert repr(key if where is None else f"{where}.{key}") in report["message"]


@pytest.mark.parametrize("flag, value", [("--feas-tol", "1e-6"), ("--max-iters", "10")])
def test_solver_tolerances_are_not_options(labeled_csv, draws_csv, capsys, flag, value):
    # the engine's tolerances are fixed constants; a NaN or infinite
    # --feas-tol once let a logit solve over its level report "optimal"
    for argv in (["solve", "--data", str(labeled_csv)],
                 ["ccp", "--data", str(draws_csv), "--stumps", "1",
                  "--objective", "0.3,-0.1,0.2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--alpha", "0.45", "--delta", "0.1", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_logit_solve_below_phi_of_minus_one_is_infeasible(labeled_csv, tmp_path, capsys):
    # logit phi-type-I risk is at least phi(-1) = 0.4519 on [-1, 1]-valued
    # bases, above this alpha_kappa, so the program has no feasible point
    out = tmp_path / "solve.json"
    rc = main(["solve", "--data", str(labeled_csv), "--alpha", "0.45",
               "--delta", "0.1", "--surrogate", "logit", "--out", str(out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "infeasible"
    assert not out.exists()


_PROP31 = {"kind": "prop31", "alpha": 0.3}
#: one small config per experiment kind; sampling and ccp run below their n0
_SMALL_EXPERIMENTS = {
    "counterexample": {"alpha": 0.25, "n_minus": 200, "n_plus": 200, "trials": 10},
    "coverage": {"scenario": _PROP31, "dictionary": {"thresholds": [0.3]}, "alpha": 0.4,
                 "delta": 0.1, "n_minus": 5000, "n_plus": 5000, "trials": 2},
    "rate": {"scenario": _PROP31, "dictionary": {"thresholds": [0.3]}, "alpha": 0.4,
             "delta": 0.1, "n_grid": [2000], "trials": 2, "oracle_resolution": 1e-2},
    "sampling": {"scenario": _PROP31, "dictionary": {"thresholds": [0.3]}, "alpha": 0.4,
                 "delta": 0.1, "n": 2000, "trials": 2, "oracle_resolution": 1e-2},
    "ccp": {"scenario": _PROP31, "constraint": {"thresholds": [0.3]},
            "objective": [1.0, 0.0, 0.5], "alpha": 0.25, "delta": 0.1, "n": 2000,
            "trials": 2, "validation_draws": 5000, "f_star": 0.75, "eps": 0.01},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", list(_SMALL_EXPERIMENTS))
def test_sampling_below_the_n0_threshold_reports_it_in_the_summary_only(tmp_path, capsys,
                                                                        kind):
    # no experiment writes to stderr: a runner below a guarantee's sample
    # size threshold says so in its summary
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_SMALL_EXPERIMENTS[kind]), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["experiment", "--kind", kind, "--config", str(path),
                 "--no-timestamp", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())["summary"]
    if kind in ("sampling", "ccp"):
        assert summary["meets_n0_precondition"] is False
        assert summary["n0"] > 0


@pytest.mark.parametrize("kind, key, value", [
    ("rate", "n_grid", [-5]),
    ("coverage", "n_plus", -3),
    ("ccp", "n", -3),
    ("ccp", "validation_draws", -5),
    ("counterexample", "grid_size", -4),
    ("counterexample", "grid_size", 0),
])
def test_negative_experiment_sizes_are_domain_errors(tmp_path, capsys, kind, key, value):
    # they used to exit 1 with a numpy traceback; grid_size 0 scanned only
    # the one-point grid {0}
    cfg = {k: v for k, v in _SMALL_EXPERIMENTS[kind].items() if k not in ("f_star", "eps")}
    cfg[key] = value
    if key == "validation_draws":
        cfg["n"] = 20000  # the trials solve before the validation draws
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["experiment", "--kind", kind, "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "domain"


def test_smooth_solve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # SLSQP's rounding follows scipy's OpenBLAS thread count; at one and at
    # two threads this run printed different weights before SLSQP was
    # pinned to one thread
    rng = np.random.default_rng(7)
    X = np.vstack([rng.normal(0.0, 1.0, (6000, 2)), rng.normal(0.7, 1.0, (6000, 2))])
    y = np.repeat([-1, 1], 6000)
    data = tmp_path / "train.csv"
    data.write_text("x0,x1,y\n" + "".join(f"{u:.17g},{v:.17g},{lab}\n"
                                          for (u, v), lab in zip(X, y)), encoding="utf-8")
    argv = [sys.executable, "-m", "npconvex", "solve", "--data", str(data), "--alpha", "0.7",
            "--delta", "0.1", "--surrogate", "logit", "--stumps", "10", "--seed", "3",
            "--no-timestamp"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(argv, capture_output=True, timeout=120, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        out[threads] = proc.stdout
    assert json.loads(out["1"])["solution"]["status"] == "optimal"
    assert out["1"] == out["2"]


def _strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, as strict
    parsers do."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("eps_bar", [1.5, -0.5])
def test_a_given_eps_bar_outside_the_unit_interval_is_a_domain_error(tmp_path, capsys,
                                                                      eps_bar):
    # it flagged every row below n0 and reported "all_within_bound": true
    # over 0 asserted rows
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_SMALL_EXPERIMENTS["rate"], "eps_bar": eps_bar}),
                    encoding="utf-8")
    assert main(["experiment", "--kind", "rate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "domain"
    assert "eps_bar must lie in [0, 1)" in json.loads(err[0])["message"]


def test_coverage_without_a_completed_trial_reports_null_statistics(tmp_path, capsys,
                                                                     monkeypatch):
    # the three statistics were NaN, which strict JSON parsers reject
    def infeasible(*args):
        raise Infeasible("no trial solves")

    monkeypatch.setattr(harness, "_solve_np", infeasible)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_SMALL_EXPERIMENTS["coverage"]), encoding="utf-8")
    assert main(["experiment", "--kind", "coverage", "--config", str(path),
                 "--no-timestamp"]) == 0
    summary = _strict_json(capsys.readouterr().out)["summary"]
    assert summary["completed"] == 0 and summary["solver_errors"] == {"Infeasible": 2}
    assert summary["mean_true_type1"] is None
    assert summary["max_true_type1"] is None
    assert summary["mean_half_width"] is None


def _numeric_leaves(cfg, path=()):
    """The path of every number in a config, list items included."""
    items = cfg.items() if isinstance(cfg, dict) else enumerate(cfg)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, (*path, key))
        elif type(value) in (int, float):
            yield (*path, key)


@pytest.mark.parametrize("kind", list(_SMALL_EXPERIMENTS))
def test_every_numeric_config_key_refuses_nan_and_infinity(tmp_path, capsys, kind):
    path = tmp_path / "cfg.json"
    leaves = list(_numeric_leaves(_SMALL_EXPERIMENTS[kind]))
    assert leaves
    for leaf in leaves:
        for constant in ("NaN", "Infinity"):
            cfg = json.loads(json.dumps(_SMALL_EXPERIMENTS[kind]))
            target = cfg
            for key in leaf[:-1]:
                target = target[key]
            target[leaf[-1]] = "__BAD__"
            path.write_text(json.dumps(cfg).replace('"__BAD__"', constant), encoding="utf-8")
            assert main(["experiment", "--kind", kind, "--config", str(path)]) == 2, leaf
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and json.loads(err[0])["error"] == "schema", (leaf, err)
