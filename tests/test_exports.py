"""Every name a module lists in ``__all__`` exists, and every name the package
re-exports is in its defining module's ``__all__``.  A stale entry otherwise
goes unnoticed, because only ``from module import *`` fails on it."""

import ast
import importlib
from pathlib import Path

import pytest

import whitney_lab

MODULES = ["differences", "functions", "geometry", "harness", "polyapprox", "simplex",
           "smoother"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"whitney_lab.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_reexports_are_public():
    tree = ast.parse(Path(whitney_lab.__file__).read_text())
    stale = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"whitney_lab.{node.module}")
            stale += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name not in module.__all__]
    assert stale == []
