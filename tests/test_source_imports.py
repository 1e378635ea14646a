"""Static checks on the imports of the package sources.

mpmath is the only runtime dependency, so a module may import only the
standard library, mpmath and entrokit itself; and mpmath and the process
pool are imported inside the functions that need them, never when a module
loads, so that a start-up pays only for what runs; and a name imported at
module level must be used by that module, in the package and in the tests (the
package's ``__init__`` re-exports are exempt); and a public top-level
function or class of the package, or a public method of a class
``__init__`` re-exports, must be used by some other module of the package
(or, for a method, by the benchmark tracer), or be listed in
``LIBRARY_API`` and named in README's library paragraph.
"""
import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "entrokit").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"
ALLOWED = set(sys.stdlib_module_names) | {"mpmath", "entrokit"}
LAZY = {"mpmath", "concurrent", "multiprocessing"}   # imported where they are used


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


def _import_time_nodes(nodes):
    """The nodes among these, and below them, that run when their module
    is imported: all but the bodies of functions."""
    for node in nodes:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _import_time_nodes(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_mpmath_and_the_pool_load_only_when_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    eager = sorted({module for module, _ in _imports(_import_time_nodes(tree.body))}
                   & LAZY)
    assert not eager, f"{path.name} imports {eager} at module level"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"] + TESTS,
                         ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {name for module, name in _imports(tree.body) if module != "__future__"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} never uses {sorted(imported - used)}"


# Public top-level functions and classes of the package, and public methods
# ("Class.method") of the classes it re-exports, that nothing in src/entrokit
# calls: each is kept for the ROADMAP item that routes it or for the benchmark
# tracer, as marked, and README's library paragraph names it, so a new name or
# method that only the tests call needs a decision too.
LIBRARY_API = (
    "bass_guivarch",       # ROADMAP item 26 (`oracle` states what it knows)
    "canonical_form",      # ROADMAP item 15 (one measure key)
    "classify_growth",     # ROADMAP item 26
    "delta_exact",         # ROADMAP item 16 (certified Perron roots, periodic points)
    "find_roots",          # public root finder; `classify_unit_circle` shares its disk stage
    "lattice_intersect",   # perfbench tracer: perfbench/tracer.py wraps it as a layer
    "lattice_preimage",    # perfbench tracer
)


def test_library_api_is_named_in_readme():
    """Every LIBRARY_API name is documented in README's paragraph that
    starts "Library API: these have no subcommand"."""
    paragraph = next(p for p in README.read_text().split("\n\n")
                     if p.startswith("Library API: these have no subcommand"))
    assert [name for name in LIBRARY_API
            if not re.search(rf"\b{re.escape(name)}\b", paragraph)] == []


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
