"""The library's exactness contract, checked on its source: no ``assert``
statement (``python -O`` strips them), no float literal, no ``float(`` call
and no true division ``/`` anywhere in ``src/demcrystal``."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "demcrystal").glob("*.py"))


def violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float() call"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exact_and_optimization_safe(path):
    found = [f"{path.name}:{line}: {what}" for line, what in violations(ast.parse(path.read_text()))]
    assert found == []


def test_rules_catch_each_pattern():
    source = "assert x\ny = 0.5\nz = float(1)\nw = 1 / 2\nw /= 3\nv = 7 // 2\n"
    assert [what for _, what in sorted(violations(ast.parse(source)))] == [
        "assert statement", "float literal 0.5", "float() call", "true division", "true division",
    ]


# The f routes and ch_via_f shift by quarter-unit ints; a Fraction there
# would put a rational back on the hot path of every character route.
QUARTER_INT_FUNCTIONS = ("f_recursive", "f_bosonic", "f_fermionic", "ch_via_f")


def fraction_calls(tree, names=QUARTER_INT_FUNCTIONS):
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in names:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction":
                    yield fn.name, node.lineno


def test_f_routes_use_quarter_ints():
    path = SOURCES[0].parent / "characters.py"
    tree = ast.parse(path.read_text())
    defined = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert set(QUARTER_INT_FUNCTIONS) <= defined
    assert list(fraction_calls(tree)) == []


def test_fraction_rule_catches_the_pattern():
    source = (
        "def f_bosonic(k):\n    return p.q_shift(Fraction(k, 4))\n"
        "def other(k):\n    return Fraction(k, 4)\n"
        "def ch_via_f(j):\n    def inner():\n        return Fraction(j, 2)\n    return inner\n"
    )
    assert list(fraction_calls(ast.parse(source))) == [("f_bosonic", 2), ("ch_via_f", 7)]
