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
