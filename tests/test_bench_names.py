"""The layer functions the benchmark times by name must exist.

perfbench/trace_child.py wraps every public function of the resfault layer
modules, and perfbench/layers.py sums the time of some of them by their
``<layer>.<function>`` names. A renamed function drops out of those sums and
its metric silently reads 0, so every such name must stay a public function
of its module. The per-layer metric names of BENCHMARK.json share the
``<layer>.<name>`` form and are not function names.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACED_FILES = ("perfbench/layers.py", "perfbench/trace_child.py")


def string_constants(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def traced_layers() -> tuple[str, ...]:
    tree = ast.parse((ROOT / "perfbench/trace_child.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("trace_child.py defines no LAYERS")


def traced_names() -> set[str]:
    layers = traced_layers()
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    names = set()
    for rel in TRACED_FILES:
        for value in string_constants(ROOT / rel):
            layer, dot, attr = value.partition(".")
            if dot and layer in layers and attr.isidentifier() and value not in metrics:
                names.add(value)
    return names


def test_every_traced_name_is_a_public_layer_function():
    names = traced_names()
    assert "models.residual_ae" in names and "models.residual_oc" in names
    missing = []
    for name in sorted(names):
        layer, _, attr = name.partition(".")
        module = importlib.import_module(f"resfault.{layer}")
        obj = getattr(module, attr, None)
        if not (
            inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not attr.startswith("_")
        ):
            missing.append(name)
    assert missing == [], f"benchmark traces names that are not layer functions: {missing}"
