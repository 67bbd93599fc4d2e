"""Source hygiene without a linter, from the syntax trees of the package: no
module but __init__ (which re-exports) imports a name it never reads, and
every module-level function or class, private or public, is read somewhere
in the package outside its own body.  __init__'s re-exports are not reads:
an exported helper that nothing in the package calls fails too."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fqcount"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
CHECKED = sorted(name for name in TREES if name != "__init__.py")


def _read_names(nodes):
    """Every identifier read under the given nodes: bare names and attributes."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _imported_names(tree):
    """The names bound by the tree's import statements, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _unread_definitions(module, private):
    """The module's private (or public) top-level functions and classes that
    no module but __init__ reads, nor the module outside their own body."""
    others = _read_names(tree for name, tree in TREES.items()
                         if name not in (module, "__init__.py"))
    unread = []
    for node in TREES[module].body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") == private and not node.name.endswith("__")):
            own = _read_names(other for other in TREES[module].body if other is not node)
            if node.name not in own | others:
                unread.append(node.name)
    return unread


@pytest.mark.parametrize("module", CHECKED)
def test_no_unused_imports(module):
    tree = TREES[module]
    read = _read_names([tree])
    assert [name for name in _imported_names(tree) if name not in read] == []


@pytest.mark.parametrize("module", CHECKED)
def test_private_definitions_are_referenced(module):
    assert _unread_definitions(module, private=True) == []


@pytest.mark.parametrize("module", CHECKED)
def test_public_definitions_are_read(module):
    assert _unread_definitions(module, private=False) == []
