"""Structural rules of the package source, checked on its syntax trees."""

import ast
from pathlib import Path

import pytest

import dirout

MODULES = sorted(Path(dirout.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_private_imports_across_modules(path):
    """A module uses only the public names of the other package modules."""
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "dirout")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"
