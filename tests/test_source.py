"""Checks on the source text itself."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def duplicate_definitions(tree: ast.Module) -> list[str]:
    """``scope.name:line`` for each def or class whose name an earlier one in
    the same module or class body already took; the later one shadows it."""
    found = []

    def visit(body, scope):
        seen = set()
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in seen:
                found.append(f"{scope}{node.name}:{node.lineno}")
            seen.add(node.name)
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{scope}{node.name}.")

    visit(tree.body, "")
    return found


def test_finds_a_shadowed_method():
    tree = ast.parse("class A:\n    def f(self): pass\n    def f(self): pass\n")
    assert duplicate_definitions(tree) == ["A.f:3"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_name_defined_twice(path):
    assert duplicate_definitions(ast.parse(path.read_text(), str(path))) == []
