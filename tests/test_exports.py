"""Every name a module exports must exist, so that deletions leave no
stale entries in __all__."""

import importlib
import pkgutil

import pytest

import nelsonlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(nelsonlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nelsonlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
