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
