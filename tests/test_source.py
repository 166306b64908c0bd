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


def test_imports_are_at_module_level():
    # run_theorem_suite imports .suite lazily: suite imports monadicity
    allowed = {("monadicity.py", "run_theorem_suite")}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((path.name, fn.name))
    assert [site for site in found if site not in allowed] == []
    assert len(found) == 1
