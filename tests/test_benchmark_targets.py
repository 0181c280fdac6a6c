"""The functions that traced benchmark runs wrap still exist.

`perfbench/tracer.py` names its traced functions as (module, function)
pairs and looks each one up with `getattr` on `aggroupoids.<module>`.
A rename in the package would break only the benchmark, so the pairs
are read here from the tracer's source, without importing `perfbench`.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no TARGETS")


def test_every_traced_function_is_a_package_callable():
    targets = _targets()
    assert targets
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(
            getattr(importlib.import_module(f"aggroupoids.{module}"), name, None)
        )
    ]
    assert missing == []
