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

Each error message the package raises is written at one ``raise`` site:
an array path that must raise what a one-point call raises re-runs the
one-point check rather than copying its message. Each public function of
the package is used by the package or the benchmark: one that only its
tests call is dead code.

The closed form, what folds it (``analytic``, ``keyrate`` and
``postprocess``) and what feeds and prints it (``config`` and ``cli``)
print the same bytes on every CPU only if their floats come from IEEE
arithmetic: numpy's ``**`` and its transcendental functions
may round differently across SIMD code paths, and a matrix product (``@``,
``np.dot``, ``einsum`` and kin) hands its sums to BLAS, which orders them
by CPU and thread count. Complex arithmetic is out too: numpy's complex
``*`` gave other bits than the formula (ac - bd, ad + bc) in plain float
arrays on 44% of 10^6 random standard-normal elements (numpy 2.4.6,
x86-64 Xeon, Python 3.11.7), as its SIMD loops may fuse a multiply and an
add. So these modules use none of them (``math`` per element where a
transcendental is needed, sums added left to right, real floats only).
"""

import ast
from collections import defaultdict
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
    assert package_modules(ast.parse("from hbepp_link.analytic import pair_probabilities")) == {"analytic"}
    assert package_modules(ast.parse("import hbepp_link.keyrate as k")) == {"keyrate"}
    assert package_modules(ast.parse("from hbepp_link import SourceParams")) == {"hbepp_link"}
    assert package_modules(ast.parse("import numpy\nfrom fractions import Fraction")) == set()


#: Modules whose floats must not depend on the CPU, and the numpy functions
#: they may not call: transcendentals and matrix products. ``config`` and
#: ``cli`` turn swept values into the core's inputs and print them, each
#: element by the one-point Python expression.
PORTABLE = [
    ROOT / "src" / "hbepp_link" / f"{name}.py"
    for name in ("analytic", "keyrate", "postprocess", "config", "cli")
]
NUMPY_TRANSCENDENTALS = {
    "cos", "sin", "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh",
    "log", "log2", "log10", "log1p", "exp", "exp2", "expm1", "power", "float_power",
    "hypot", "cbrt",
}
NUMPY_PRODUCTS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}
NUMPY_FORBIDDEN = NUMPY_TRANSCENDENTALS | NUMPY_PRODUCTS
#: The operators whose floats may depend on the CPU.
OPERATORS = {ast.Pow: "**", ast.MatMult: "@"}


def cpu_dependent_floats(tree: ast.AST) -> list[str]:
    """Every ``**``, ``@``, their augmented forms, numpy transcendental,
    numpy matrix product, imaginary literal and use of ``complex`` in
    ``tree``, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in OPERATORS:
            found.append(f"{node.lineno}: {OPERATORS[type(node.op)]}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
            found.append(f"{node.lineno}: {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "complex":
            found.append(f"{node.lineno}: complex")
        elif (isinstance(node, ast.Attribute) and node.attr in NUMPY_FORBIDDEN
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(f"{node.lineno}: numpy.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.extend(f"{node.lineno}: numpy.{alias.name}" for alias in node.names
                         if alias.name in NUMPY_FORBIDDEN)
    return sorted(found)


def test_portable_modules_use_no_pow_or_numpy_transcendentals():
    offenders = {
        path.name: found
        for path in PORTABLE
        if (found := cpu_dependent_floats(ast.parse(path.read_text())))
    }
    assert offenders == {}


def test_guard_flags_complex_arithmetic():
    source = PORTABLE[1].read_text()
    lines = source.count("\n")
    injected = source + "slope = rate(complex(g, 1e-30)).imag * 1e30\n"
    assert cpu_dependent_floats(ast.parse(injected)) == [f"{lines + 1}: complex"]
    for snippet, found in (
        ("g + 1e-30j", ["1: 1e-30j"]),
        ("z = 1j * x", ["1: 1j"]),
        ("np.asarray(g, dtype=complex)", ["1: complex"]),
        ("g.astype(complex) + complex(0.0, h)", ["1: complex", "1: complex"]),
        ("x.imag + abs(x.real) + 1e-3 * x", []),
    ):
        assert cpu_dependent_floats(ast.parse(snippet)) == found, snippet


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
        ("a @ b", ["1: @"]),
        ("a @= b", ["1: @"]),
        ("np.dot(a, b) + numpy.matmul(a, b)", ["1: numpy.dot", "1: numpy.matmul"]),
        ("np.einsum('ij,jk', a, b)", ["1: numpy.einsum"]),
        ("np.tensordot(a, b) + np.inner(a, b) + np.vdot(a, b)",
         ["1: numpy.inner", "1: numpy.tensordot", "1: numpy.vdot"]),
        ("from numpy import einsum, matmul, take", ["1: numpy.einsum", "1: numpy.matmul"]),
        ("np.log10(x) + np.log1p(x) + np.expm1(x) + np.exp2(x)",
         ["1: numpy.exp2", "1: numpy.expm1", "1: numpy.log10", "1: numpy.log1p"]),
        ("np.float_power(x, 2) + np.hypot(x, y) + np.cbrt(x)",
         ["1: numpy.cbrt", "1: numpy.float_power", "1: numpy.hypot"]),
        ("np.tan(x) + np.arctan(x) + np.arctan2(x, y)",
         ["1: numpy.arctan", "1: numpy.arctan2", "1: numpy.tan"]),
        ("np.arcsin(x) + np.arccos(x)", ["1: numpy.arccos", "1: numpy.arcsin"]),
        ("np.sinh(x) + np.cosh(x) + np.tanh(x)",
         ["1: numpy.cosh", "1: numpy.sinh", "1: numpy.tanh"]),
        ("x[index] * weight + np.take(x, index) + math.hypot(x, y)", []),
    ):
        assert cpu_dependent_floats(ast.parse(snippet)) == found, snippet


#: The package's modules, each of whose ``raise`` messages has one site.
PACKAGE = sorted((ROOT / "src" / "hbepp_link").glob("*.py"))


def raise_templates(tree: ast.AST) -> list[tuple[str, int]]:
    """The message of each ``raise`` whose exception is called with a string
    or f-string first, as (template, line): its constant parts joined, each
    formatted value as ``{}``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and node.exc.args):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.JoinedStr):
            parts = message.values
        elif isinstance(message, ast.Constant) and isinstance(message.value, str):
            parts = [message]
        else:
            continue
        template = "".join(
            part.value if isinstance(part, ast.Constant) else "{}" for part in parts
        )
        found.append((template, node.lineno))
    return found


def repeated_templates(sources) -> dict[str, list[str]]:
    """Each template raised at more than one site of the (name, source)
    pairs ``sources``, with its sites as name:line in order."""
    sites = defaultdict(list)
    for name, source in sources:
        for template, line in sorted(raise_templates(ast.parse(source)), key=lambda t: t[1]):
            sites[template].append(f"{name}:{line}")
    return {template: where for template, where in sites.items() if len(where) > 1}


def test_each_raise_message_has_one_site():
    assert ROOT / "src" / "hbepp_link" / "keyrate.py" in PACKAGE
    assert repeated_templates((path.name, path.read_text()) for path in PACKAGE) == {}


def test_guard_flags_a_repeated_message():
    source = (ROOT / "src" / "hbepp_link" / "keyrate.py").read_text()
    lines = source.count("\n")
    injected = source + "if eps < 0.0:\n    raise ValueError(f'error rate must be in [0, 1], got {eps!r}')\n"
    repeated = repeated_templates([("keyrate.py", injected)])
    assert list(repeated) == ["error rate must be in [0, 1], got {}"]
    assert len(repeated["error rate must be in [0, 1], got {}"]) == 2
    assert repeated["error rate must be in [0, 1], got {}"][-1] == f"keyrate.py:{lines + 2}"
    # across modules too, an implicitly joined f-string as one message
    two = [("a.py", 'raise E(f"sum to {float(t)!r}, expected 1")'),
           ("b.py", 'raise E(\n    f"sum to {t[c]!r}, "\n    "expected 1"\n)')]
    assert repeated_templates(two) == {"sum to {}, expected 1": ["a.py:1", "b.py:1"]}
    for snippet, found in (
        ('raise ValueError("no key")', [("no key", 1)]),
        ('raise E(f"{key}: unknown key") from None', [("{}: unknown key", 1)]),
        ("raise", []),
        ("raise exc", []),
        ("raise E(message)", []),
        ("raise E()", []),
    ):
        assert raise_templates(ast.parse(snippet)) == found, snippet


#: Where a public function of the package may be used: the package itself
#: and the benchmark, which imports it by name.
USERS = PACKAGE + sorted((ROOT / "bench").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def referenced_name(node: ast.AST) -> str | None:
    """The identifier ``node`` refers to: a name, an attribute, an imported
    name or a string that is an identifier (``__all__``, ``getattr``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        return node.value
    return None


def references(tree: ast.Module) -> set[str]:
    """Every identifier ``tree`` refers to, except a module-level function's
    references to its own name inside its own definition."""
    found = set()
    for statement in tree.body:
        own = statement.name if isinstance(statement, FUNCTIONS) else None
        found.update(name for node in ast.walk(statement)
                     if (name := referenced_name(node)) is not None and name != own)
    return found


def unused_functions(package, users) -> list[str]:
    """The public module-level functions of the (module, source) pairs
    ``package``, as module.function, that no source of ``users`` refers to."""
    used = set().union(*(references(ast.parse(source)) for source in users))
    return [f"{module}.{statement.name}"
            for module, source in package
            for statement in ast.parse(source).body
            if isinstance(statement, FUNCTIONS)
            and not statement.name.startswith("_") and statement.name not in used]


def test_every_public_function_is_used():
    assert ROOT / "bench" / "run.py" in USERS
    package = [(path.stem, path.read_text()) for path in PACKAGE]
    assert unused_functions(package, [path.read_text() for path in USERS]) == []


def test_guard_flags_an_unused_function():
    keyrate = ROOT / "src" / "hbepp_link" / "keyrate.py"
    # a function that only calls itself is unused
    orphan = keyrate.read_text() + "\n\ndef orphan(n):\n    return orphan(n - 1) if n else 0\n"
    package = [(path.stem, orphan if path == keyrate else path.read_text()) for path in PACKAGE]
    users = [orphan if path == keyrate else path.read_text() for path in USERS]
    assert unused_functions(package, users) == ["keyrate.orphan"]
    for user in ("orphan(3)", "keyrate.orphan", "from .keyrate import orphan as o",
                 "from hbepp_link.keyrate import orphan", "__all__ = ['orphan']"):
        assert unused_functions(package, users + [user]) == [], user
    # private and nested functions, and methods, are not checked
    for snippet in ("def _helper(): pass", "def f():\n    def inner(): pass\n\nf()",
                    "class C:\n    def method(self): pass\n\nC"):
        assert unused_functions([("m", snippet)], [snippet]) == [], snippet
