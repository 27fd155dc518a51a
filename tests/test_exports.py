"""Every name that a module lists in ``__all__`` exists: a stale entry makes
``from specdiff.<module> import *`` raise AttributeError."""

import pkgutil

import pytest

import specdiff

MODULES = ["specdiff"] + [f"specdiff.{info.name}"
                          for info in pkgutil.iter_modules(specdiff.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})
