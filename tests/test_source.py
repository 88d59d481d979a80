import ast
import importlib.util
from pathlib import Path

import twosquares

SOURCE = Path(twosquares.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements; internal checks must raise instead
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_traced_function_exists():
    # the benchmark traces these by (module, name); a renamed or deleted
    # one turns its per-layer metrics into nulls instead of failing
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TRACED
    missing = [
        f"{module}.{name}"
        for module, name in layers.TRACED.values()
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
