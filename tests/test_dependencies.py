"""The package imports nothing beyond the standard library.

numpy, sympy and mpmath may be installed next to it, and gmpy2 or
python-flint might be one day, but none of them is a dependency of
``src/mopexact``.  mpmath serves the tests as an independent reference;
plot-data rounds the exact values instead of evaluating in mpmath.
"""

import ast
import json
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


def _names(tree: ast.AST, name: str) -> bool:
    """Whether a source imports name by name or reads it as a module attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


def _users(name: str) -> set[str]:
    """The package modules that name name."""
    return {source.stem for source in PACKAGE.glob("*.py") if _names(ast.parse(source.read_text(), str(source)), name)}


def test_gamma_product_stays_at_the_output_edge():
    users = _users("GammaProduct")
    assert users <= GAMMA_PRODUCT_USERS
    assert {"families", "hyper", "__init__"} <= users  # the scanner sees the imports it allows


def test_gamma_product_scanner_sees_every_form():
    for source in ("from .gammaprod import GammaProduct", "from mopexact.gammaprod import as_fraction, GammaProduct",
                   "from . import gammaprod\ngammaprod.GammaProduct.one()", "import mopexact\nmopexact.GammaProduct"):
        assert _names(ast.parse(source), "GammaProduct"), source
    assert not _names(ast.parse("from .gammaprod import rising_product\nGammaProducts = 1"), "GammaProduct")


#: The modules that may name BasisKind: where it is defined, the one admission of each polynomial type
#: (families.type2_row and families.type1_rows), the output edge and the package namespace.  Every other
#: reader takes a polynomial through those gates and never asks for its basis itself.
BASIS_KIND_USERS = {"polybasis", "families", "cli", "__init__"}


def test_basis_kind_is_read_only_by_the_gates():
    users = _users("BasisKind")
    assert users <= BASIS_KIND_USERS
    assert {"families", "cli", "__init__"} <= users  # the scanner sees the imports it allows


def test_basis_kind_scanner_sees_every_form():
    for source in ("from .polybasis import BasisKind", "from mopexact.polybasis import Basis, BasisKind",
                   "from . import polybasis\npolybasis.BasisKind.MONOMIAL", "import mopexact\nmopexact.BasisKind"):
        assert _names(ast.parse(source), "BasisKind"), source
    assert not _names(ast.parse("from .polybasis import Basis\nBasisKinds = Basis.monomial().kind"), "BasisKind")


#: The integer-row kernels: each is defined once, in gammaprod, and every other module calls that one.
ROW_KERNELS = {"ratio_row", "reduced_row", "row_sum", "pair", "primitive", "same", "rising", "rising_product"}


def _defined_functions(tree: ast.AST) -> set[str]:
    """Names of the functions a source defines, at module level, in a class or nested."""
    return {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_row_kernels_are_defined_only_in_gammaprod():
    defined = {source.stem: _defined_functions(ast.parse(source.read_text(), str(source)))
               for source in PACKAGE.glob("*.py")}
    assert ROW_KERNELS <= defined["gammaprod"]
    assert {name: sorted(names & ROW_KERNELS) for name, names in defined.items()
            if name != "gammaprod" and names & ROW_KERNELS} == {}


def test_function_scanner_sees_every_form():
    source = "def same(a): pass\nclass C:\n    def pair(self): pass\ndef f():\n    def primitive(): pass\nasync def rising(): pass"
    assert _defined_functions(ast.parse(source)) == {"same", "pair", "f", "primitive", "rising"}
    assert _defined_functions(ast.parse("from .gammaprod import same\npair = same")) == set()


def test_package_import_scanner_sees_every_form():
    for source in ("from .hyper import pfq", "from . import hyper", "from mopexact.hyper import kdf",
                   "from mopexact import hyper", "import mopexact.hyper"):
        assert _imported_package_modules(ast.parse(source)) == {"hyper"}, source
    assert _imported_package_modules(ast.parse("from .gammaprod import ratio_row\nimport math")) == {"gammaprod"}


def _run_fresh(probe: str) -> str:
    """stdout of a fresh interpreter running probe; it imports the same mopexact as this process, also under a bare `pytest`."""
    src = os.path.dirname(os.path.dirname(mopexact.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True).stdout


#: Modules that importing the command line, which every command pays, must not load: a reference
#: library, the class generator and the introspection it pulls in, what only identity, table or
#: plot-data run, the process pools and logging verify once used, and the signal module that only
#: `verify --jobs` needs, to kill a child still running when its own share raises.
COLD_UNLOADED = ("mpmath", "dataclasses", "inspect", "csv", "mopexact.hyper", "multiprocessing", "logging",
                 "concurrent.futures", "signal")


def test_cli_import_leaves_mpmath_unloaded():
    probe = f"import sys, mopexact.cli; print([name for name in {COLD_UNLOADED!r} if name in sys.modules])"
    assert _run_fresh(probe).strip() == "[]"


def test_names_loaded_on_first_use_resolve_in_a_fresh_process():
    probe = """if True:
        import contextlib, io, json, sys, mopexact, mopexact.cli
        report = {"pfq": mopexact.pfq.__module__, "all": "kdf" in mopexact.__all__}
        for argv in (["identity", "--name", "kummer", "--draws", "3"], ["table", "--format", "csv"]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                report[argv[0]] = [mopexact.cli.main(argv), out.getvalue()]
        print(json.dumps(report))"""
    report = json.loads(_run_fresh(probe))
    assert report["pfq"] == "mopexact.hyper" and report["all"]
    code, out = report["identity"]
    assert code == 0 and json.loads(out)["summary"] == {"pass": 3, "fail": 0, "vacuous": False}
    code, out = report["table"]
    assert code == 0 and out.startswith("instance,type,weight,basis,k,coefficient\nlaguerre1|n=1,2,,monomial,")
