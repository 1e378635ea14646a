"""Static checks on the imports of the package sources.

mpmath is the only runtime dependency, so a module may import only the
standard library, mpmath and entrokit itself; and a name imported at module
level must be used by that module, in the package and in the tests (the
package's ``__init__`` re-exports are exempt); and a public top-level
function or class of the package, or a public method of a class
``__init__`` re-exports, must be used by some other module of the package
(or, for a method, by the benchmark tracer), or be listed in
``LIBRARY_API``.
"""
import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "entrokit").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"
ALLOWED = set(sys.stdlib_module_names) | {"mpmath", "entrokit"}


def _imports(nodes):
    """(top-level module, or None for a relative import; bound name) for
    every import statement among the nodes."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                yield top, alias.asname or top
        elif isinstance(node, ast.ImportFrom):
            module = None if node.level else node.module.partition(".")[0]
            for alias in node.names:
                yield module, alias.asname or alias.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_mpmath_or_entrokit(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = sorted({module for module, _ in _imports(ast.walk(tree))
                      if module is not None and module not in ALLOWED})
    assert not outside, f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"] + TESTS,
                         ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {name for module, name in _imports(tree.body) if module != "__future__"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} never uses {sorted(imported - used)}"


# Public top-level functions and classes of the package, and public methods
# ("Class.method") of the classes it re-exports, that nothing in src/entrokit
# calls: each is declared library API in README or kept for the benchmark
# tracer, as marked, so a new name or method that only the tests call needs a
# decision too.
LIBRARY_API = (
    "bass_guivarch", "canonical_form", "classify_growth", "delta_exact",
    "disjoint_union", "hnf", "left_shift", "pinsker_subspace", "power_map",
    "right_shift",
    "Heisenberg3.pack", "LinearFlow.on_integer_lattice", "LinearFlow.on_rationals",
    "LinearFlow.on_reals", "LinearFlow.on_torus_dual", "RatMatrix.inverse",
    "RatMatrix.power",
    # kept for perfbench/tracer.py, which wraps them as layers
    "lattice_intersect", "lattice_preimage",
)


def _exported():
    init = next(p for p in SOURCES if p.name == "__init__.py")
    return {name for module, name in _imports(ast.parse(init.read_text()).body)}


def test_public_names_have_a_caller_or_are_library_api():
    defined, referenced = set(), set()
    for path in SOURCES:
        if path.name != "__init__.py":
            for statement in ast.parse(path.read_text()).body:
                if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) \
                        and not statement.name.startswith("_"):
                    defined.add(statement.name)
                names = {node.id if isinstance(node, ast.Name) else node.attr
                         for node in ast.walk(statement)
                         if isinstance(node, (ast.Name, ast.Attribute))}
                # a definition's references to itself are not callers
                referenced |= names - {getattr(statement, "name", None)}
    names = {name for name in LIBRARY_API if "." not in name}
    assert sorted(defined - referenced - names) == []
    assert sorted(names - defined) == []


def _attributes(tree) -> Counter:
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_public_methods_have_a_caller_or_are_library_api():
    """A public method or property of an exported class must be read as an
    attribute somewhere in src/entrokit or perfbench/tracer.py, outside its
    own definition.  The check matches attribute names only, not the class
    they are read on, so a method passes when another class's attribute of
    the same name is read (``Lattice.scaled`` would cover an
    ``EntropyValue.scaled``)."""
    exported = _exported()
    reads = _attributes(ast.parse(TRACER.read_text()))
    methods = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        reads += _attributes(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in exported:
                methods.update((f"{cls.name}.{fn.name}", fn) for fn in cls.body
                               if isinstance(fn, ast.FunctionDef)
                               and not fn.name.startswith("_"))
    uncalled = {name for name, fn in methods.items()
                if reads[fn.name] == _attributes(fn)[fn.name]}
    declared = {name for name in LIBRARY_API if "." in name}
    assert sorted(uncalled - declared) == []
    assert sorted(declared - set(methods)) == []
