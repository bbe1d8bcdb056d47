"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import drope

MODULES = sorted(info.name for info in pkgutil.iter_modules(drope.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"drope.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"drope.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(drope.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"drope.{module}"), name), (module, name)
        assert hasattr(drope, name), name
