"""The package imports nothing beyond the standard library.

numpy, sympy and mpmath may be installed next to it, and gmpy2 or
python-flint might be one day, but none of them is a dependency of
``src/mopexact``.  mpmath serves the tests as an independent reference;
plot-data rounds the exact values instead of evaluating in mpmath.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mopexact

FORBIDDEN = {"numpy", "sympy", "gmpy2", "flint", "mpmath"}
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mopexact"


def _imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_forbidden_runtime_imports():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offending = {
        source.name: sorted(_imported_roots(ast.parse(source.read_text(), str(source))) & FORBIDDEN)
        for source in sources
    }
    assert not {name: roots for name, roots in offending.items() if roots}


def test_scanner_sees_every_import_form():
    tree = ast.parse("import numpy.linalg\nfrom sympy import Rational\nfrom . import gammaprod\nimport flint as f\n")
    assert _imported_roots(tree) == {"numpy", "sympy", "flint"}


def test_cli_import_leaves_mpmath_unloaded():
    # the child imports the same mopexact as this process, also under a bare `pytest`
    src = os.path.dirname(os.path.dirname(mopexact.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = "import sys, mopexact.cli; print('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"
