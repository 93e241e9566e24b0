"""perfbench's tracer wraps qgns functions by name: every name it lists must
exist, or `perfbench/run.py --trace 1` fails at install time while the rest
of the suite passes."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> tuple[tuple[str, str], ...]:
    """The TARGETS tuple of perfbench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


def test_every_traced_target_resolves_in_the_package():
    targets = _targets()
    assert targets
    missing = []
    for module, attr in targets:
        obj = importlib.import_module(f"qgns.{module}")
        for part in attr.split("."):  # "Class.method" names a method
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []
