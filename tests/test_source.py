"""Source-level rules of the library package."""

from __future__ import annotations

import ast
import importlib
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


def benchmark_targets() -> list[tuple[str, str]]:
    """(module, name) of every ``Target`` in the benchmark tracer's ``TARGETS``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(), str(path))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    return [(call.args[0].value, call.args[1].value) for call in table.elts]


def test_every_function_the_benchmark_traces_exists():
    # The tracer wraps functions by module and name, so a rename in the
    # package would otherwise surface only when a traced benchmark runs.
    targets = benchmark_targets()
    assert len(targets) == len(set(targets)) > 0
    missing = [f"xplego.{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"xplego.{module}"), name, None))]
    assert missing == []
