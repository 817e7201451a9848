import ast
from pathlib import Path

import witrees


def test_no_assert_in_library():
    """Invariants must raise, not assert: `python -O` strips asserts."""
    src = Path(witrees.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
