"""The package and its tests run on numpy, pytest and the standard library,
and the independent references share no code with what they check.

CI installs only numpy and pytest. Exact references (such as
``tests/exact.py``) use ``fractions``, not a computer-algebra or
arbitrary-precision package, so an import of one of those would pass
locally and fail in CI.

The brute-force oracle (``fock.py``), the exact reference
(``tests/exact.py``) and the second evaluation strategy
(``tests/subtractive.py``) check the closed form, so they import from the
package only ``params`` and ``patterns``, never ``analytic`` or a module
that imports it.

The closed form and what folds it (``analytic``, ``keyrate`` and
``postprocess``) print the same bytes on every CPU only if their floats
come from IEEE arithmetic: numpy's ``**`` and its transcendental functions
may round differently across SIMD code paths, so these modules use neither
(``math`` per element where a transcendental is needed).
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
    ROOT / "tests" / "subtractive.py": {"params", "patterns"},
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
        source = path.read_text() + "\nfrom .analytic import outcome_probability_array\n"
        assert foreign_modules(path, source) == {"analytic"}


def test_detects_package_imports():
    assert package_modules(ast.parse("from . import analytic, params")) == {"analytic", "params"}
    assert package_modules(ast.parse("from hbepp_link.analytic import pair_table")) == {"analytic"}
    assert package_modules(ast.parse("import hbepp_link.keyrate as k")) == {"keyrate"}
    assert package_modules(ast.parse("from hbepp_link import SourceParams")) == {"hbepp_link"}
    assert package_modules(ast.parse("import numpy\nfrom fractions import Fraction")) == set()


#: Modules whose floats must not depend on the CPU, and the numpy functions
#: they may not call.
PORTABLE = [
    ROOT / "src" / "hbepp_link" / f"{name}.py" for name in ("analytic", "keyrate", "postprocess")
]
NUMPY_TRANSCENDENTALS = {"cos", "sin", "log", "log2", "exp", "power"}


def cpu_dependent_floats(tree: ast.AST) -> list[str]:
    """Every ``**``, ``**=`` and numpy transcendental in ``tree``, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            found.append(f"{node.lineno}: **")
        elif (isinstance(node, ast.Attribute) and node.attr in NUMPY_TRANSCENDENTALS
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(f"{node.lineno}: numpy.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.extend(f"{node.lineno}: numpy.{alias.name}" for alias in node.names
                         if alias.name in NUMPY_TRANSCENDENTALS)
    return sorted(found)


def test_portable_modules_use_no_pow_or_numpy_transcendentals():
    offenders = {
        path.name: found
        for path in PORTABLE
        if (found := cpu_dependent_floats(ast.parse(path.read_text())))
    }
    assert offenders == {}


def test_guard_flags_cpu_dependent_floats():
    source = PORTABLE[0].read_text()
    lines = source.count("\n")
    injected = source + "y = np.log2(x)\n"
    assert cpu_dependent_floats(ast.parse(injected)) == [f"{lines + 1}: numpy.log2"]
    for snippet, found in (
        ("x ** 2", ["1: **"]),
        ("x **= 0.5", ["1: **"]),
        ("numpy.power(x, 3) + np.exp(x)", ["1: numpy.exp", "1: numpy.power"]),
        ("from numpy import cos, sqrt", ["1: numpy.cos"]),
        ("math.log2(x) * x * x + np.sqrt(x)", []),
    ):
        assert cpu_dependent_floats(ast.parse(snippet)) == found, snippet
