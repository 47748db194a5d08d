"""The package imports nothing beyond the standard library and mpmath.

numpy and sympy may be installed next to it, and gmpy2 or python-flint
might be one day, but none of them is a dependency of ``src/mopexact``.
"""

import ast
from pathlib import Path

FORBIDDEN = {"numpy", "sympy", "gmpy2", "flint"}
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
