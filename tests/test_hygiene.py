"""Source hygiene without a linter, from the syntax trees of the package: no
module but __init__ (which re-exports) imports a name it never reads, and
every module-level function or class and every method of a class, private
or public, is read somewhere in the package outside its own body (an
override of a base class's method is read by the base).
__init__'s re-exports are not reads: an exported helper that nothing in the
package calls fails too.  The oracle imports nothing from the code it
checks, the closed forms import nothing from the package but the field, no
closed form and no cached function takes an enumeration budget, the closed
forms cache nothing but their N_k tables, no module walks cycle types, the
oracle sorts nothing, no two modules define one top-level name, no error
message is raised at two sites, and the README's library sketch runs."""

import ast
import importlib
from collections import Counter, defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fqcount"
README = PACKAGE.parent.parent / "README.md"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
CHECKED = sorted(name for name in TREES if name != "__init__.py")
ORACLE_CHECKS = {"counting", "cli", "wenger"}  # the modules the oracle checks


def _read_names(nodes):
    """Every identifier read under the given nodes, bare names and attributes,
    with the number of its reads."""
    names = Counter()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
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


def _unread_methods(module, private):
    """The private (or public) methods, dunders aside, of the module's classes
    that nothing in the package reads outside the method's own body.  An
    override of a base class's method, such as an argparse hook, is read by
    the base's callers."""
    package = _read_names(TREES.values())
    classes = vars(importlib.import_module(f"fqcount.{module[:-3]}"))
    return [f"{cls.name}.{node.name}"
            for cls in TREES[module].body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") == private and not node.name.endswith("__")
            and package[node.name] == _read_names([node])[node.name]
            and not any(hasattr(base, node.name) for base in classes[cls.name].__mro__[1:])]


def _taking_budget(functions):
    """The names of the given functions that take a `budget` parameter."""
    return [node.name for node in functions
            if "budget" in {arg.arg for arg in node.args.args + node.args.kwonlyargs}]


@pytest.mark.parametrize("module", CHECKED)
def test_no_unused_imports(module):
    tree = TREES[module]
    read = _read_names([tree])
    assert [name for name in _imported_names(tree) if name not in read] == []


@pytest.mark.parametrize("module", CHECKED)
def test_private_definitions_are_referenced(module):
    assert _unread_definitions(module, private=True) == []


@pytest.mark.parametrize("module", CHECKED)
def test_private_methods_are_read(module):
    assert _unread_methods(module, private=True) == []


@pytest.mark.parametrize("module", CHECKED)
def test_public_methods_are_read(module):
    assert _unread_methods(module, private=False) == []


@pytest.mark.parametrize("module", CHECKED)
def test_public_definitions_are_read(module):
    assert _unread_definitions(module, private=False) == []


def test_oracle_imports_nothing_it_checks():
    """The ground truth shares no code with the closed forms, the command line
    or the Wenger spectra it validates."""
    imported = set()
    for node in ast.walk(TREES["oracle.py"]):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert imported.isdisjoint(ORACLE_CHECKS)


def test_closed_forms_import_only_the_field():
    """A closed form does not enumerate, so counting.py reads nothing of the
    package but ff: no cycle types, no sieve, no oracle."""
    imported = {node.module for node in ast.walk(TREES["counting.py"])
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    imported |= {alias.name for node in ast.walk(TREES["counting.py"])
                 if isinstance(node, ast.Import) for alias in node.names
                 if alias.name.startswith("fqcount")}
    assert imported == {"ff"}


def test_closed_forms_take_no_budget():
    """A closed form does no enumeration, so it has no budget to spend:
    neither a function of counting.py nor wenger.spectrum_formula takes one."""
    functions = [node for node in ast.walk(TREES["counting.py"])
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    functions += [node for node in TREES["wenger.py"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "spectrum_formula"]
    assert len(functions) > 1
    assert _taking_budget(functions) == []


def _cached_functions(tree):
    """The functions of the tree cached with functools.cache or lru_cache."""
    def cached(node):
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in ("cache", "lru_cache"):
                return True
        return False

    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and cached(node)]


def test_cached_functions_take_no_budget():
    """A budget gates work and is no input of a table, so no function of the
    package cached with functools.cache or lru_cache takes one."""
    functions = [node for tree in TREES.values() for node in _cached_functions(tree)]
    assert len(functions) > 1
    assert _taking_budget(functions) == []


def test_closed_forms_cache_only_their_tables():
    """The closed forms keep one memo, a family's whole N_k table: a second
    cache over a value the table's build already computed would only hide a
    lookup that recomputes it."""
    assert [node.name for node in _cached_functions(TREES["counting.py"])] == ["_table"]


def test_no_cycle_type_walk():
    """The sieve sums by the exponential formula: no module defines the
    cycle-type walk, which only the tests keep, and sieve.py yields nothing."""
    defined = {node.name for tree in TREES.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert defined.isdisjoint({"enumerate_cycle_types", "perm_type_count", "_signed_type_sum"})
    assert not any(isinstance(node, (ast.Yield, ast.YieldFrom))
                   for node in ast.walk(TREES["sieve.py"]))


def test_oracle_sorts_nothing():
    """The subset DP reads each state's one predecessor through `_removed`,
    so no step is inverted by sorting: oracle.py calls no sort."""
    called = _read_names(node.func for node in ast.walk(TREES["oracle.py"])
                         if isinstance(node, ast.Call))
    assert called.keys().isdisjoint({"argsort", "sort", "sorted", "lexsort"})


def _top_level_names(tree):
    """The names a module binds at top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for target in targets for n in ast.walk(target)
                        if isinstance(n, ast.Name))


def test_no_name_defined_twice():
    """Each top-level name has one home: a second definition elsewhere is a
    rule two modules must keep in step, where an import would read the one."""
    homes = defaultdict(list)
    for module, tree in TREES.items():
        for name in _top_level_names(tree):
            homes[name].append(module)
    assert {name: modules for name, modules in homes.items() if len(modules) > 1} == {}


def _message_sites(tree):
    """The literal text of each error message of the tree, raised or handed
    to cli._require, one set per site: each string piece of three words or
    more (an f-string gives one piece per literal part)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            args = node.exc.args
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_require":
            args = node.args[1:]
        else:
            continue
        yield {text.value for arg in args for text in ast.walk(arg)
               if isinstance(text, ast.Constant) and isinstance(text.value, str)
               and len(text.value.split()) >= 3}


def test_no_message_has_two_raise_sites():
    """Each rule has one check, so no message piece is raised at two sites of
    the package; the command line screens user values through the library's
    checks and writes only the messages of its own flags.  The one exception
    is a rule that oracle.py restates from a module it may not import."""
    sites = defaultdict(list)
    for module, tree in TREES.items():
        for pieces in _message_sites(tree):
            for piece in pieces:
                sites[piece].append(module)
    restated = lambda modules: (len(modules) == 2 and "oracle.py" in modules and
                                any(module[:-3] in ORACLE_CHECKS for module in modules))
    assert {piece: modules for piece, modules in sites.items()
            if len(modules) > 1 and not restated(modules)} == {}


def test_readme_library_sketch_runs():
    sketch = README.read_text().split("## Library sketch", 1)[1]
    code = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
