"""Static checks on the imports of the package sources.

mpmath is the only runtime dependency, so a module may import only the
standard library, mpmath and entrokit itself; and a name imported at module
level must be used by that module (the package's ``__init__`` re-exports
are exempt); and a name ``__init__`` re-exports must be used by some other
module of the package, or be listed in ``LIBRARY_API``.
"""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "entrokit").glob("*.py"))
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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {name for module, name in _imports(tree.body) if module != "__future__"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} never uses {sorted(imported - used)}"


# Names the package re-exports that no module of src/entrokit calls: each is
# either declared library API (README and ROADMAP item 7) or still awaits a
# decision there, so a new name that only the tests call needs one too.
LIBRARY_API = (
    "bass_guivarch", "classify_growth", "hnf", "left_shift", "pinsker_subspace",
    "power_map", "right_shift",
    # undecided (ROADMAP item 7): give a CLI route, document or delete
    "delta_sequence_exact", "eigenvalue_lower_bound", "is_zero_mahler",
    "lattice_intersect", "lattice_preimage", "reciprocal",
)


def test_public_names_have_a_caller_or_are_library_api():
    init = next(p for p in SOURCES if p.name == "__init__.py")
    exported = {name for module, name in _imports(ast.parse(init.read_text()).body)}
    referenced = set()
    for path in SOURCES:
        if path != init:
            for statement in ast.parse(path.read_text()).body:
                names = {node.id if isinstance(node, ast.Name) else node.attr
                         for node in ast.walk(statement)
                         if isinstance(node, (ast.Name, ast.Attribute))}
                # a definition's references to itself are not callers
                referenced |= names - {getattr(statement, "name", None)}
    assert sorted(exported - referenced - set(LIBRARY_API)) == []
    assert sorted(set(LIBRARY_API) - exported) == []
