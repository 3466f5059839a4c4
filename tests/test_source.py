"""Static checks over the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unital"


def test_no_assert_statements():
    # `python -O` strips asserts, so library invariants must raise explicitly
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/unital: {found}"
