"""Every name that a module lists in ``__all__`` exists: a stale entry makes
``from specdiff.<module> import *`` raise AttributeError.  And every such
name is used by the package or the benchmark harness, so API that only
tests call does not live in the package."""

import ast
import functools
import importlib
import pathlib
import pkgutil

import pytest

import specdiff

MODULES = ["specdiff"] + [f"specdiff.{info.name}"
                          for info in pkgutil.iter_modules(specdiff.__path__)]
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})


def _defined(stmt):
    """The names a top-level statement defines or assigns."""
    if hasattr(stmt, "name"):    # a function or a class
        return {stmt.name}
    return {node.id for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


@functools.cache
def used_names():
    """Names read, as a name or an attribute, or imported by name anywhere
    in ``src/specdiff`` or ``perfbench``, outside the top-level statement
    that defines them."""
    used = set()
    for path in sorted((ROOT / "src" / "specdiff").glob("*.py")) + sorted(
            (ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = _defined(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                used.update(name for name in names if name not in own)
    return used


@pytest.mark.parametrize("module", MODULES)
def test_exports_have_callers(module):
    exported = getattr(importlib.import_module(module), "__all__", [])
    assert sorted(set(exported) - used_names()) == []
