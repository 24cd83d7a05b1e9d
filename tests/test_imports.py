"""Source hygiene: every module-level import in the package is used, and
every private module-level name is read somewhere in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "npconvex"


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


def private_definitions(source: str) -> list:
    """Private functions, classes and constants a module defines at top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


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
