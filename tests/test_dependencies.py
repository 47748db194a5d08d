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


#: The modules `verify` runs; the hypergeometric series of `hyper` serve the identity command only.
VERIFY_PATH = ("driver", "oracle", "families", "residues", "weights", "polybasis", "linalg", "gammaprod")


def _imported_package_modules(tree: ast.AST) -> set[str]:
    """Modules of this package that a source imports: relative imports and mopexact.* imports."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[1] for alias in node.names
                           if alias.name.startswith("mopexact."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "mopexact" and not module.startswith("mopexact."):
                    continue
                module = module.removeprefix("mopexact").removeprefix(".")
            if module:
                modules.add(module.split(".")[0])
            else:
                modules.update(alias.name for alias in node.names)
    return modules


def test_verify_path_does_not_import_hyper():
    importers = [
        name for name in VERIFY_PATH
        if "hyper" in _imported_package_modules(ast.parse((PACKAGE / f"{name}.py").read_text()))
    ]
    assert importers == []


#: The modules that may name GammaProduct: where it is defined, the canonical type I scale
#: (families.type1_scale), the identity prefactors, the output edge and the package namespace.
GAMMA_PRODUCT_USERS = {"gammaprod", "families", "hyper", "cli", "__init__"}


def _names_gamma_product(tree: ast.AST) -> bool:
    """Whether a source imports GammaProduct by name or reads it as a module attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(alias.name == "GammaProduct" for alias in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "GammaProduct":
            return True
    return False


def test_gamma_product_stays_at_the_output_edge():
    users = {source.stem for source in PACKAGE.glob("*.py")
             if _names_gamma_product(ast.parse(source.read_text(), str(source)))}
    assert users <= GAMMA_PRODUCT_USERS
    assert {"families", "hyper", "__init__"} <= users  # the scanner sees the imports it allows


def test_gamma_product_scanner_sees_every_form():
    for source in ("from .gammaprod import GammaProduct", "from mopexact.gammaprod import as_fraction, GammaProduct",
                   "from . import gammaprod\ngammaprod.GammaProduct.one()", "import mopexact\nmopexact.GammaProduct"):
        assert _names_gamma_product(ast.parse(source)), source
    assert not _names_gamma_product(ast.parse("from .gammaprod import rising_product\nGammaProducts = 1"))


def test_package_import_scanner_sees_every_form():
    for source in ("from .hyper import pfq", "from . import hyper", "from mopexact.hyper import kdf",
                   "from mopexact import hyper", "import mopexact.hyper"):
        assert _imported_package_modules(ast.parse(source)) == {"hyper"}, source
    assert _imported_package_modules(ast.parse("from .gammaprod import ratio_row\nimport math")) == {"gammaprod"}


def test_cli_import_leaves_mpmath_unloaded():
    # the child imports the same mopexact as this process, also under a bare `pytest`
    src = os.path.dirname(os.path.dirname(mopexact.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = "import sys, mopexact.cli; print('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"
