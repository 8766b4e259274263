"""Every name a package module imports is used in that module.

A deletion that leaves its imports behind would otherwise go unnoticed: an
unused import still loads its module.  An import inside a function must be
used inside that function.  ``from __future__`` imports are directives, not
names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blowupforms"
MODULES = sorted(PACKAGE.glob("*.py"))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(scope):
    """The nodes of a module's or function's body, outside the functions it defines."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements of ``source`` that their scope never reads."""
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]:
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in own_nodes(scope):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
            unused += [(node.lineno, name) for name in names if name not in read]
    return [f"line {line}: {name}" for line, name in sorted(unused)]


def test_unused_imports_are_found():
    source = ("import os\nfrom math import comb, prod\n\n"
              "def f():\n    import json\n    return prod([os.sep])\n")
    assert unused_imports(source) == ["line 2: comb", "line 5: json"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
