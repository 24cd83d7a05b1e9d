"""Source hygiene: every module-level import in the package is used."""

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
