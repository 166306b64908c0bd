import ast
from collections import defaultdict
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


def test_suite_builds_algebra_categories_and_density_only_in_its_context():
    # a run keeps one algebra category per monad and one density verdict
    # per root in monadicity.Run, for its checks and resolutions alike; a
    # reference anywhere else in suite.py or monadicity.py would bypass them
    memoised = {"build_algebra_category", "is_dense"}
    found = []
    for module in ("suite.py", "monadicity.py"):
        tree = ast.parse((SOURCE / module).read_text())
        run = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Run"]
        inside = {id(node) for node in run for node in ast.walk(node)}
        found += [(name, id(node) in inside) for node in ast.walk(tree)
                  for name in [getattr(node, "id", None) if isinstance(node, ast.Name) else getattr(node, "attr", None)]
                  if name in memoised]
    assert sorted(set(found)) == [("build_algebra_category", True), ("is_dense", True)]


MUTABLE_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter",
                 "deque", "array", "WeakKeyDictionary", "WeakValueDictionary"}
# constant tables, never written after import
ALLOWED_TABLES = {("corpus.py", "STANDARD_CATEGORIES"), ("corpus.py", "CANONICAL_JSON")}


def _is_mutable_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in MUTABLE_CALLS
    return False


def test_no_process_wide_mutable_containers():
    # a dict, list or set bound at module or class level, or as a default
    # argument, lives as long as the process: a cache there outlives the
    # run that filled it.  Caches belong to a run (census.DownstairsCensus)
    # or to an immutable input.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                for target in targets:
                    name = ast.unparse(target)
                    if _is_mutable_container(value) and (path.name, name) not in ALLOWED_TABLES:
                        found.append(f"{path.name}:{node.lineno} {name}")
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for default in fn.args.defaults + [d for d in fn.args.kw_defaults if d is not None]:
                    if _is_mutable_container(default):
                        found.append(f"{path.name}:{default.lineno} default argument")
    assert found == []


# top-level names that no CLI path reaches and that stay for a reader outside src/relmon
REACHABILITY_ROOTS = {
    ("__init__", "__version__"): "the package's version, read by importers and packaging tools",
    ("monadicity", "decide_monadicity"): "bench/tracing.py wraps it and bench/test_harness.py calls it",
    ("colim", "check_creation"): "bench/tracing.py wraps it",
    ("colim", "try_weighted_limit"): "bench/tracing.py wraps it",
    ("colim", "cocone_is_colimiting"): "bench/tracing.py wraps it",
    ("corpus", "save_instance"): "README.md names it",
    ("monad", "precompose_root"): "README.md and the paper name it",
    ("monadicity", "check_monadic_iff_left_adjoint"): "README.md and the paper name it",
    ("corpus", "generate_category"): "bench/workloads.py uses it",
    ("corpus", "load_oracles"): "bench/workloads.py uses it",
}


def _top_level_nodes() -> dict:
    """(module, name) -> the top-level def, class or assignment that binds name."""
    nodes = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nodes[(path.stem, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    nodes.update(((path.stem, name.id), node) for name in ast.walk(target)
                                 if isinstance(name, ast.Name))
    return nodes


def _reached(nodes: dict, roots) -> set:
    """The keys of nodes reached from roots: a name or attribute read in a
    reached node reaches every top-level binding of that name, in any
    module, which over-approximates imports and module attributes."""
    by_name = defaultdict(list)
    for key in nodes:
        by_name[key[1]].append(key)
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            for node in ast.walk(nodes[key]):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                todo.extend(by_name.get(name, ()))
    return seen


def test_engine_definitions_are_reached_from_the_cli():
    # every top-level def, class and assignment in src/relmon is reached
    # from cli.main or from a root that a reader outside the package uses;
    # code only tests reach belongs in tests/ (tests/reference.py holds the
    # independent oracles)
    nodes = _top_level_nodes()
    from_cli = _reached(nodes, [("cli", "main")])
    assert [root for root in REACHABILITY_ROOTS if root in from_cli or root not in nodes] == []
    reached = _reached(nodes, [("cli", "main"), *REACHABILITY_ROOTS])
    assert sorted(".".join(key) for key in set(nodes) - reached) == []
