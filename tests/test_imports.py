"""Every import in the library is used in the scope that makes it, and
made once.

A module-level import counts as used when its name is read anywhere in
the module; an import inside a function only when its name is read in
that function.  ``__init__.py`` imports are re-exports and
``from __future__`` imports are directives, so neither is checked for
use.  No function imports again, under any alias, what its module
already imports at module level.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ptasynth"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports(node):
    """(source, name, line) for each name an import statement binds, where
    ``source`` is what it binds whatever the alias: the dotted module of an
    ``import``, or the module (with its leading dots) and name of a ``from``."""
    prefix = ""
    if isinstance(node, ast.ImportFrom):
        if node.module == "__future__":
            return []
        prefix = "." * node.level + (node.module or "") + ":"
    return [(prefix + alias.name, alias.asname or alias.name.split(".")[0], node.lineno)
            for alias in node.names if alias.name != "*"]


def _own_imports(scope):
    """Imports made in ``scope`` itself, not in a function nested in it."""
    found = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend(_imports(node))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _read_names(scope):
    return {node.id for node in ast.walk(scope)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str, check_module: bool = True):
    """(scope, name, line) for every import whose name its scope never reads."""
    tree = ast.parse(source)
    scopes = [node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]
    if check_module:
        scopes.insert(0, tree)
    out = []
    for scope in scopes:
        read = _read_names(scope)
        for _, name, line in _own_imports(scope):
            if name not in read:
                out.append((getattr(scope, "name", "<module>"), name, line))
    return out


def reimports(source: str):
    """(function, name, line) for every function-level import of something
    the module already imports at module level, under any alias."""
    tree = ast.parse(source)
    at_module = {src for src, _, _ in _own_imports(tree)}
    return sorted((scope.name, name, line)
                  for scope in ast.walk(tree) if isinstance(scope, FUNCTIONS)
                  for src, name, line in _own_imports(scope) if src in at_module)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_reimports_a_module_name(path):
    again = reimports(path.read_text())
    assert not again, "%s: names imported again in functions %s" % (path.name, again)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = unused_imports(path.read_text(), check_module=path.name != "__init__.py")
    assert not unused, "%s: unused imports %s" % (path.name, unused)


def test_checker_sees_scopes():
    source = (
        "import math\n"
        "from os import path as p, sep\n"
        "def f():\n"
        "    from json import dumps, loads\n"
        "    def g():\n"
        "        import re\n"
        "        return loads\n"
        "    return math.pi + sep\n"
    )
    assert unused_imports(source) == [
        ("<module>", "p", 2), ("f", "dumps", 4), ("g", "re", 6)]
    again = source + (
        "def h():\n"
        "    import math\n"
        "    from os import sep as s, path\n"
        "    from json import dumps\n"
        "    from os.path import sep\n"
        "    return math.e + s + path.sep + dumps(0) + sep\n"
    )
    assert reimports(again) == [("h", "math", 10), ("h", "path", 11), ("h", "s", 11)]
