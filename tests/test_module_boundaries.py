"""Module boundaries: no package module imports another one's private names."""

import ast
from pathlib import Path

import pytest

import agdsmooth

MODULES = sorted(Path(agdsmooth.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_relative_import_of_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)  # function-level imports included
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"
