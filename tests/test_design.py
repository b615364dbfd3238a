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


FUNCTOOLS_CACHES = {"cache", "lru_cache"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_hidden_module_state(path):
    """No module keeps state across calls: no weak-reference tables, no
    functools caches, no ``global`` rebinding. Per-object ``cached_property``
    values live and die with their object, so they are allowed."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "weakref"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = (node.module or "").split(".")[0]
            found += [
                f"from {node.module} import {a.name}"
                for a in node.names
                if module == "weakref" or (module == "functools" and a.name in FUNCTOOLS_CACHES)
            ]
        elif isinstance(node, ast.Attribute) and node.attr in FUNCTOOLS_CACHES:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(f"functools.{node.attr}")
        elif isinstance(node, ast.Global):
            found.append(f"global {', '.join(node.names)}")
    assert not found, f"{path.name} keeps module-level state: {found}"
