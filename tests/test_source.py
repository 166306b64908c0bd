import ast
from pathlib import Path

import relmon

SOURCE = Path(relmon.__file__).parent


def test_engine_invariants_do_not_rest_on_assert():
    # python -O strips assert statements; engine invariants raise TheoremViolation
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SOURCE.glob("*.py"))
    assert found == []
