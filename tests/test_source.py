"""Checks on the package source itself."""

import ast
from pathlib import Path

import nefcert


def test_no_assert_statements_in_the_package():
    """Every internal check raises, so that `python -O` keeps it."""
    found = []
    for path in sorted(Path(nefcert.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
