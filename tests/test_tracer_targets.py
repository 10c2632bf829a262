"""The benchmark tracer's targets name functions that exist.

`bench/tracer.py` wraps each ``(layer, function)`` of its ``TARGETS`` found
as ``opreduce.<layer>.<function>``, so a renamed or moved function breaks
every traced benchmark run.  The list is read from the file's syntax tree,
without importing the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_targets() -> tuple:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    missing = [
        f"{layer}.{name}"
        for layer, name in targets
        if not callable(getattr(importlib.import_module(f"opreduce.{layer}"), name, None))
    ]
    assert not missing, f"bench/tracer.py targets absent from opreduce: {missing}"
