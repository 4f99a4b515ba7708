"""Rules that the package source itself keeps."""

import ast
import importlib.util
import json
from pathlib import Path

import pffcert
from pffcert import sieve

SRC = Path(pffcert.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def test_src_has_no_assert_statements():
    # `python -O` strips assert, so a check on data must raise instead:
    # no verdict may depend on the interpreter's optimization flag
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_the_number_and_polynomial_layers_import_no_numpy():
    # arith, fpoly and sieve work on Python ints and tuples; numpy enters
    # where a table or a matrix is built (gf, smallfield, charsum)
    for name in ("arith", "fpoly", "sieve"):
        tree = ast.parse((SRC / f"{name}.py").read_text(), filename=name)
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
        assert not [m for m in imported if m.split(".")[0] == "numpy"], f"{name} imports numpy"


# no command calls it, but the benchmark's declared `gf.frobenius` counter names it
_UNREFERENCED = {("gf.py", "FieldTower.frobenius")}


def _definitions(node, prefix=""):
    """(qualified name, def node) for every function and method under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _definitions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def test_every_function_is_referenced_from_the_package():
    # a function that no other code of the package names is reached by no
    # command: it is a second entry point, or an oracle that belongs to
    # verify-suite or the tests; the exports in __init__ do not count
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    uses = {}  # name -> [(file, line)] of every Name or Attribute reading it
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                uses.setdefault(name, []).append((fname, node.lineno))
    unreferenced = []
    for fname, tree in trees.items():
        for qualname, node in _definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__") or (fname, qualname) in _UNREFERENCED:
                continue
            outside = [(f, line) for f, line in uses.get(node.name, [])
                       if f != fname or not node.lineno <= line <= node.end_lineno]
            if not outside:
                unreferenced.append(f"{fname}:{qualname}")
    assert not unreferenced, f"functions that no other code of the package names: {unreferenced}"


def _declared_metrics() -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def test_every_declared_call_count_names_a_traced_function():
    # the benchmark's tracer wraps functions by name: deleting or renaming one
    # that a declared metric counts must fail here, not only in a traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {span for _, span in tracer.traced_targets()}
    declared = [name.removesuffix(".calls") for name in _declared_metrics() if name.endswith(".calls")]
    missing = [name for name in declared if name not in traced]
    assert declared and not missing, f"declared call counts of untraced functions: {missing}"


def test_every_declared_method_count_names_a_certify_method():
    # "undecided" is the benchmark's label for an UNDECIDED certificate
    labels = set(sieve.METHODS) | {"undecided"}
    declared = [name.removeprefix("sieve.method.") for name in _declared_metrics() if name.startswith("sieve.method.")]
    unknown = [label for label in declared if label not in labels]
    assert declared and not unknown, f"declared method counts of no certify method: {unknown}"
