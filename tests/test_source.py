"""Rules that the package source itself keeps."""

import ast
from pathlib import Path

import pffcert

SRC = Path(pffcert.__file__).parent


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
