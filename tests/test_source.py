"""Rules the library's source keeps."""

import ast
from pathlib import Path

import beliefnet

SOURCES = sorted(Path(beliefnet.__file__).parent.glob("*.py"))


def test_no_runtime_check_rests_on_assert():
    # ``python -O`` strips assert statements, so a check written as one
    # would silently stop running; the library raises instead.
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
