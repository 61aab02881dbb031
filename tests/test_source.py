"""Properties of the package source itself."""

import ast
from pathlib import Path

import slinv


def test_the_package_has_no_assert_statements():
    """Invariants raise typed errors, because `python -O` strips asserts."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(slinv.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
