"""Every private module-level function, class and constant in
``src/vrclosure`` is read somewhere in ``src/`` outside its own
definition, so no helper outlives the code that called it."""

import ast
from functools import cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vrclosure"
MODULES = sorted(path.name for path in SRC.glob("*.py"))


@cache
def trees():
    return {name: ast.parse((SRC / name).read_text(encoding="utf-8")) for name in MODULES}


def private_definitions(tree):
    """``(name, node)`` for each private name a module's top level defines
    by ``def``, ``class`` or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def reads(node):
    """The names read inside ``node``, bare or as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def unread(modules, module):
    """The private names ``module`` defines that no other top-level
    statement of ``modules``, a dict of parsed modules, reads."""
    statements = [(node, set(reads(node))) for tree in modules.values() for node in tree.body]
    return [
        name
        for name, node in private_definitions(modules[module])
        if not any(name in names for other, names in statements if other is not node)
    ]


def test_modules_are_found():
    assert {"transform.py", "complex.py", "cli.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_private_names_are_read(module):
    assert unread(trees(), module) == []


def test_a_name_read_only_by_itself_is_unread():
    source = "_LIMIT = 3\n\ndef _loop(n):\n    return _loop(n - 1)\n\ndef _caller():\n    return _LIMIT\n"
    assert unread({"m": ast.parse(source)}, "m") == ["_loop", "_caller"]
