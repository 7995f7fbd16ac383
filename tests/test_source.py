"""Checks over the library source itself."""

import ast
from pathlib import Path

import conglab

SRC = Path(conglab.__file__).parent


def test_no_assert_in_library():
    # verifier checks raise InternalCheckError so they survive python -O
    # and surface as exit code 4, not as a traceback with exit 1
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
