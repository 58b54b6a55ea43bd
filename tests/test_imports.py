"""What the library imports.

Every name a library module imports is used in that module: a stdlib-ast
stand-in for a linter's unused-import check.  __init__.py is skipped: its
imports are the package's re-exports.  And no run loads scipy.special: the
triangle rules read their Gauss-Jacobi factor from a table, which equals
scipy.special.roots_jacobi to the bit.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bvcfem"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_checker_flags_unused_and_ignores_future():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import scipy.sparse\n"
        "from .mesh import Mesh, REFERENCE_CELLS\n"
        "x = np.zeros(2) + len(REFERENCE_CELLS) + scipy.sparse.eye(1).nnz\n"
    )
    assert unused_imports(source) == ["line 4: Mesh"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Run in a fresh interpreter: this one has loaded scipy.special already.
NO_SPECIAL = """
import json, sys
import numpy as np
from bvcfem.mesh import gauss_01
from bvcfem.spaces import quadrature
from bvcfem.study import run_preset

run_preset("q1-ellipse", levels=2)
run_preset("p3-ring", levels=2)
quadrature("triangle", 20)
loaded = "scipy.special" in sys.modules

from scipy.special import roots_jacobi

equal = []
for n in range(1, 12):  # every point count of a triangle rule, degrees 0-20
    rule = quadrature("triangle", 2 * n - 1 if n < 11 else 20)
    xj, wj = roots_jacobi(n, 1, 0)
    x01, w01 = gauss_01(n)
    xi, t = np.meshgrid(0.5 * (xj + 1.0), x01, indexing="ij")
    points = np.stack([xi.ravel(), ((1.0 - xi) * t).ravel()], axis=-1)
    weights = np.outer(0.25 * wj, w01).ravel()
    equal.append(np.array_equal(rule.points, points) and np.array_equal(rule.weights, weights))
print(json.dumps(dict(loaded=loaded, equal=equal)))
"""


def test_quad_runs_never_load_scipy_special():
    proc = subprocess.run(
        [sys.executable, "-c", NO_SPECIAL],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    got = json.loads(proc.stdout)
    assert got == dict(loaded=False, equal=[True] * 11)
