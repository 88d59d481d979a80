import ast
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
