"""The package and its tests run on numpy, pytest and the standard library.

CI installs only numpy and pytest. Exact references (such as
``tests/exact.py``) use ``fractions``, not a computer-algebra or
arbitrary-precision package, so an import of one of those would pass
locally and fail in CI.
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
