"""Source hygiene without a linter, from the syntax trees of the package: no
module but __init__ (which re-exports) imports a name it never reads, and
every module-level private function or class is read somewhere in the
package outside its own body."""

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


def _private_definitions(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.endswith("__")):
            yield node


@pytest.mark.parametrize("module", CHECKED)
def test_no_unused_imports(module):
    tree = TREES[module]
    read = _read_names([tree])
    assert [name for name in _imported_names(tree) if name not in read] == []


@pytest.mark.parametrize("module", CHECKED)
def test_private_definitions_are_referenced(module):
    others = _read_names(tree for name, tree in TREES.items() if name != module)
    unreferenced = []
    for definition in _private_definitions(TREES[module]):
        own = _read_names(node for node in TREES[module].body if node is not definition)
        if definition.name not in own | others:
            unreferenced.append(definition.name)
    assert unreferenced == []
