"""Source-level rules of the library package."""

from __future__ import annotations

import ast
from pathlib import Path

import xplego


def test_library_raises_typed_errors_not_asserts():
    # An assert statement vanishes under ``python -O``; invariants raise
    # ``InvariantError`` instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(xplego.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_exported_name_is_bound_once():
    names = xplego.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(xplego, name)] == []
