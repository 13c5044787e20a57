"""The package and its tests run on numpy, pytest and the standard library,
and the independent references share no code with what they check.

CI installs only numpy and pytest. Exact references (such as
``tests/exact.py``) use ``fractions``, not a computer-algebra or
arbitrary-precision package, so an import of one of those would pass
locally and fail in CI.

The brute-force oracle (``fock.py``) and the exact reference
(``tests/exact.py``) check the closed form, so they import from the
package only ``params`` (the oracle) and ``patterns``, never ``analytic``
or a module that imports it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FORBIDDEN = {"sympy", "mpmath", "scipy", "hypothesis"}
SOURCES = sorted(
    path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py")
)


def imported_packages(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_sources_found():
    assert ROOT / "tests" / "test_dependencies.py" in SOURCES
    assert ROOT / "src" / "hbepp_link" / "analytic.py" in SOURCES


def test_no_optional_dependency_imported():
    offenders = {
        str(path.relative_to(ROOT)): sorted(found)
        for path in SOURCES
        if (found := imported_packages(ast.parse(path.read_text())) & FORBIDDEN)
    }
    assert offenders == {}


def test_detects_forbidden_imports():
    for source in ("import sympy", "import mpmath as mp", "from scipy.special import comb",
                   "def f():\n    import hypothesis"):
        assert imported_packages(ast.parse(source)) & FORBIDDEN
    relative = imported_packages(ast.parse("from . import sympy\nimport numpy"))
    assert relative == {"numpy"}


#: Package modules each independent reference may import.
REFERENCE_IMPORTS = {
    ROOT / "src" / "hbepp_link" / "fock.py": {"params", "patterns"},
    ROOT / "tests" / "exact.py": {"patterns"},
}


def package_modules(tree: ast.AST) -> set[str]:
    """The ``hbepp_link`` modules a source imports, relatively or by name;
    ``hbepp_link`` itself for the package root."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # inside the package
            names = [node.module] if node.module else [alias.name for alias in node.names]
            modules.update(f"hbepp_link.{name}" for name in names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    parts = [module.split(".") for module in modules]
    return {names[1] if len(names) > 1 else names[0] for names in parts if names[0] == "hbepp_link"}


def foreign_modules(path: Path, source: str) -> set[str]:
    """The package modules ``source``, read as the file ``path``, imports
    beyond what ``REFERENCE_IMPORTS`` allows it."""
    return package_modules(ast.parse(source)) - REFERENCE_IMPORTS[path]


def test_references_import_only_params_and_patterns():
    offenders = {
        str(path.relative_to(ROOT)): sorted(found)
        for path in REFERENCE_IMPORTS
        if (found := foreign_modules(path, path.read_text()))
    }
    assert offenders == {}


def test_guard_flags_the_closed_form():
    for path in REFERENCE_IMPORTS:
        source = path.read_text() + "\nfrom .analytic import vacuum_terms\n"
        assert foreign_modules(path, source) == {"analytic"}


def test_detects_package_imports():
    assert package_modules(ast.parse("from . import analytic, params")) == {"analytic", "params"}
    assert package_modules(ast.parse("from hbepp_link.analytic import pair_table")) == {"analytic"}
    assert package_modules(ast.parse("import hbepp_link.keyrate as k")) == {"keyrate"}
    assert package_modules(ast.parse("from hbepp_link import SourceParams")) == {"hbepp_link"}
    assert package_modules(ast.parse("import numpy\nfrom fractions import Fraction")) == set()
