"""Every name a module lists in ``__all__`` exists.  A stale entry otherwise
goes unnoticed, because only ``from module import *`` fails on it."""

import importlib

import pytest

MODULES = ["differences", "functions", "geometry", "harness", "polyapprox", "simplex",
           "smoother"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"whitney_lab.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
