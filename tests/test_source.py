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
