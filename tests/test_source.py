"""Checks on the library's source text."""

import ast
from pathlib import Path

import crystalpaths

SRC = Path(crystalpaths.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check the library relies on
    # must raise explicitly
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
