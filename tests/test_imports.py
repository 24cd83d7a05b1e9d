"""Source hygiene: every module-level import in the package is used,
every private module-level name is read somewhere in the package, every
public module-level constant is read in the package, its tests or its
benchmarks, no module but errors words a domain refusal as its two
checkers do, no module calls warnings.warn, and scipy loads only when an
SLSQP solve needs it."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "npconvex"


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_the_check_sees_unused_and_used_imports():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\nfrom .risk import Sample, WeightedAtoms\n"
           "def f(x: WeightedAtoms):\n    return np.asarray(x)\n")
    assert unused_imports(src) == ["Sample (line 4)", "os (line 2)"]


# __init__.py imports in order to re-export
@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_has_no_unused_imports(path):
    assert unused_imports((PACKAGE / path).read_text(encoding="utf-8")) == []


def top_level_names(source: str, constants_only: bool = False) -> list:
    """Names a module binds at top level: by assignment, and unless
    constants_only, by def and class."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not constants_only:
                names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


def private_definitions(source: str) -> list:
    """Private functions, classes and constants a module defines at top level."""
    return [n for n in top_level_names(source)
            if n.startswith("_") and not n.startswith("__")]


def public_constants(source: str) -> list:
    """Public names a module binds by top-level assignment."""
    return [n for n in top_level_names(source, constants_only=True)
            if not n.startswith("_")]


def names_read(source: str) -> set:
    """Names read as a bare name or as an attribute, e.g. core._slsqp."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_the_check_sees_unread_private_names():
    src = ("_A = 1\n_B: int = 2\n__all__ = []\nPUBLIC = 3\n"
           "def _f():\n    return _A\nclass _C:\n    pass\ndef g(m):\n    return m._C\n")
    assert private_definitions(src) == ["_A", "_B", "_f", "_C"]
    assert {"_A", "_C"} <= names_read(src) and not {"_B", "_f"} & names_read(src)


def test_package_reads_every_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    read = set().union(*(names_read(src) for src in sources.values()))
    unread = sorted(f"{path}: {name}" for path, src in sources.items()
                    for name in private_definitions(src) if name not in read)
    assert unread == []


def test_the_check_sees_unread_public_constants():
    src = ("LIMIT = 3\nKINDS: tuple = ('a',)\n_PRIVATE = 4\n__all__ = []\n"
           "def f():\n    return LIMIT\nclass C:\n    SIZE = 5\n")
    assert public_constants(src) == ["LIMIT", "KINDS"]
    assert "LIMIT" in names_read(src) and "KINDS" not in names_read(src)
    assert "KINDS" in names_read("from m import KINDS\nprint(KINDS)")
    assert "KINDS" in names_read("import m\nprint(m.KINDS)")


def test_every_public_constant_is_read():
    # a constant nothing reads is a setting no caller uses
    sources = {p: p.read_text(encoding="utf-8")
               for folder in (PACKAGE, ROOT / "tests", ROOT / "benchmarks")
               for p in folder.glob("*.py")}
    read = set().union(*(names_read(src) for src in sources.values()))
    unread = sorted(f"{path.name}: {name}" for path, src in sources.items()
                    if path.parent == PACKAGE
                    for name in public_constants(src) if name not in read)
    assert unread == []


#: the wordings of errors.check_real and errors.check_count
DOMAIN_PHRASES = ("must lie in", "must be an integer >=")


def domain_messages(source: str) -> list:
    """Lines of the string literals, f-string parts included, that word a
    domain refusal the way the two checkers do."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and any(phrase in node.value for phrase in DOMAIN_PHRASES)})


def test_the_check_sees_domain_messages():
    src = ("def f(x, n):\n    if not 0 < x < 1:\n"
           "        raise DomainError(f'x must lie in (0, 1), got {x}')\n"
           "    if n < 1:\n        raise DomainError('n must be an integer >= 1')\n"
           "    check_real(x, 'x', 0, 1)\n    return 'must lie'\n")
    assert domain_messages(src) == [3, 5]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "errors.py"))
def test_only_the_checkers_word_a_domain_refusal(path):
    # whether an argument is a usable number is decided once, by
    # errors.check_real and errors.check_count
    assert domain_messages((PACKAGE / path).read_text(encoding="utf-8")) == []


def warning_calls(source: str) -> list:
    """Lines that call warnings.warn, or warn imported from warnings."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "warnings"
               for alias in node.names if alias.name == "warn"}
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Attribute) and node.func.attr == "warn"
         and isinstance(node.func.value, ast.Name) and node.func.value.id == "warnings")
        or (isinstance(node.func, ast.Name) and node.func.id in aliases))]


def test_the_check_sees_warning_calls():
    src = ("import warnings\nfrom warnings import warn as w\n"
           "def f():\n    warnings.warn('a')\n    w('b')\n"
           "    with warnings.catch_warnings():\n        log.warn('c')\n")
    assert warning_calls(src) == [4, 5]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_writes_no_warnings(path):
    # the CLI's stderr holds one JSON error line or nothing; a runner
    # reports an unmet precondition in its summary instead
    assert warning_calls((PACKAGE / path).read_text(encoding="utf-8")) == []


def import_time_modules(source: str) -> list:
    """Modules a module imports when it is itself imported: every import
    statement outside function bodies (class bodies and top-level if/try
    blocks run at import time)."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                found.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_check_sees_import_time_imports():
    src = ("import numpy as np\nfrom .risk import Sample\n"
           "try:\n    import scipy.optimize\nexcept ImportError:\n    pass\n"
           "class C:\n    from scipy import linalg\n"
           "def f():\n    from scipy.optimize import minimize\n    return minimize\n")
    assert import_time_modules(src) == ["numpy", "scipy.optimize", "scipy"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_does_not_import_scipy_at_import_time(path):
    # scipy.optimize costs more than half a second to import; only the
    # SLSQP route needs it, and it imports it on first use
    modules = import_time_modules((PACKAGE / path).read_text(encoding="utf-8"))
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


SCIPY_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
import numpy as np
import npconvex
from npconvex import NPConfig, Sample, np_solver
from npconvex.cli import main
from npconvex.hypothesis import BaseDictionary, ConstantClassifier, DecisionStump
from npconvex.surrogate import hinge, logit

rng = np.random.default_rng(5)
seen = {{}}
with open({labeled!r}, "w", encoding="utf-8") as fh:
    fh.write("x0,y\\n")
    for x, y in zip(rng.uniform(0, 1, 8000), np.repeat([-1, 1], 4000)):
        fh.write(f"{{x:.6f}},{{y}}\\n")
with open({draws!r}, "w", encoding="utf-8") as fh:
    fh.write("x0\\n" + "".join(f"{{x:.6f}}\\n" for x in rng.uniform(0, 1, 3000)))
seen["import"] = "scipy.optimize" in sys.modules
codes = [main(["solve", "--data", {labeled!r}, "--alpha", "0.45", "--delta", "0.1",
               "--stumps", "2", "--surrogate", "hinge", "--no-timestamp", "--out", {out!r}]),
         main(["ccp", "--data", {draws!r}, "--alpha", "0.45", "--delta", "0.1",
               "--stumps", "2", "--surrogate", "hinge", "--objective", "0.5,-0.2,0.1,0.3,-0.4",
               "--no-timestamp", "--out", {out!r}])]
sample = Sample(rng.uniform(0, 1, (4000, 1)), rng.uniform(0.3, 1.3, (4000, 1)))
d = BaseDictionary([ConstantClassifier(-1.0), DecisionStump(0, 0.5, 1)], dim=1)
np_solver.grid_oracle_np(sample, d, NPConfig(alpha=0.45, delta=0.1, surrogate=hinge()),
                         resolution=0.05)
seen["hinge"] = "scipy.optimize" in sys.modules
sol = np_solver.solve_np(sample, d, NPConfig(alpha=0.8, delta=0.1, surrogate=logit()))
seen["logit"] = "scipy.optimize" in sys.modules
print(json.dumps({{"codes": codes, "seen": seen, "status": sol.status}}))
"""


def test_only_a_smooth_solve_loads_scipy(tmp_path):
    script = SCIPY_SCRIPT.format(src=str(ROOT / "src"), labeled=str(tmp_path / "train.csv"),
                                 draws=str(tmp_path / "draws.csv"),
                                 out=str(tmp_path / "report.json"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == [0, 0]
    assert out["seen"] == {"import": False, "hinge": False, "logit": True}
    assert out["status"] == "optimal"


HARNESS_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from npconvex.cli import main

with open({labeled!r}, "w", encoding="utf-8") as fh:
    fh.write("x0,y\\n" + "".join(f"{{i / 8000}},{{1 if i % 2 else -1}}\\n" for i in range(8000)))
codes = [main(["solve", "--data", {labeled!r}, "--alpha", "0.45", "--delta", "0.1",
               "--stumps", "2", "--surrogate", "hinge", "--no-timestamp", "--out", {out!r}]),
         main(["ccp", "--data", {labeled!r}, "--alpha", "0.45", "--delta", "0.1",
               "--stumps", "2", "--surrogate", "hinge", "--objective", "0.5,-0.2,0.1,0.3,-0.4",
               "--no-timestamp", "--out", {out!r}])]
print(json.dumps({{"codes": codes, "harness": "npconvex.harness" in sys.modules}}))
"""


def test_solve_and_ccp_do_not_import_the_harness(tmp_path):
    # only experiment runs the Monte Carlo harness; its imports (logging,
    # concurrent.futures, statistics) cost the other commands about 20 ms
    script = HARNESS_SCRIPT.format(src=str(ROOT / "src"), labeled=str(tmp_path / "train.csv"),
                                   out=str(tmp_path / "report.json"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"codes": [0, 0], "harness": False}


MASKED_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from npconvex.cli import main

with open({labeled!r}, "w", encoding="utf-8") as fh:
    fh.write("x0,x1,y\\n" + "".join(f"{{i / 8000}},{{(i * 7) % 13}},{{1 if i % 2 else -1}}\\n"
                                   for i in range(8000)))
codes = [main(["solve", "--data", {labeled!r}, "--alpha", "0.45", "--delta", "0.1",
               "--stumps", "3", "--surrogate", "hinge", "--no-timestamp", "--out", {out!r}]),
         main(["ccp", "--data", {labeled!r}, "--alpha", "0.45", "--delta", "0.1",
               "--stumps", "1", "--surrogate", "hinge", "--objective", "0.5,-0.2,0.1,0.3,-0.4",
               "--no-timestamp", "--out", {out!r}])]
print(json.dumps({{"codes": codes, "masked": "numpy.ma" in sys.modules}}))
"""


def test_solve_and_ccp_do_not_import_numpy_ma(tmp_path):
    # np.quantile and np.unique of floats import numpy.ma, about 9 ms of
    # each CLI process; the stump thresholds need neither
    script = MASKED_SCRIPT.format(src=str(ROOT / "src"), labeled=str(tmp_path / "train.csv"),
                                  out=str(tmp_path / "report.json"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"codes": [0, 0], "masked": False}
