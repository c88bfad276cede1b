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


SQUARING_CALLS = {"square", "einsum", "dot", "hypot", "linalg"}


def squarings(tree, keeper="_sum_squares"):
    """Line numbers outside the function ``keeper`` that square or sum a gap:
    a call named or reached through one of ``SQUARING_CALLS``, ``x *= x``,
    ``x * x`` or ``x ** 2``."""
    kept = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == keeper
            for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if id(node) in kept:
            continue
        if isinstance(node, ast.Call):
            squares = bool(SQUARING_CALLS & set(reads(node.func)))
        elif isinstance(node, (ast.AugAssign, ast.BinOp)):
            left, right = (node.target, node.value) if isinstance(node, ast.AugAssign) else (node.left, node.right)
            squares = (isinstance(node.op, ast.Mult) and ast.unparse(left) == ast.unparse(right)
                       or isinstance(node.op, ast.Pow) and ast.unparse(right) in ("2", "2.0"))
        else:
            continue
        if squares:
            yield node.lineno


def test_only_sum_squares_squares_gaps_in_transform():
    # every distance of the sampled layers is summed in one order, so that a
    # box, a grid candidate or an edge equals or bounds the kernel's cell
    assert list(squarings(trees()["transform.py"])) == []


def test_squarings_are_found():
    source = (
        "def _sum_squares(gap, out):\n    gap *= gap\n    return np.square(gap, out=out)\n\n"
        "def other(x, y):\n    x *= x\n    x *= y\n    y = x * x + x * y + x ** 2 + x ** 3\n"
        "    return np.linalg.norm(x) + np.einsum('i,i', x, x) + x.dot(x) + math.hypot(x, y)\n"
    )
    assert sorted(squarings(ast.parse(source))) == [6, 8, 8, 9, 9, 9, 9]
