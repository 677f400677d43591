"""Every name a module exports must exist, so that deletions leave no
stale entries in __all__, and every function the benchmark's tracer wraps
must exist under its name."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import nelsonlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(nelsonlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nelsonlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _benchmark_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_lookups_resolve():
    # the benchmark wraps these by getattr; a renamed or deleted function
    # would make every traced run raise AttributeError
    functions = _benchmark_tracer()._FUNCTIONS
    missing = [f"{mod}.{attr}" for mod, attr in functions.values()
               if not hasattr(importlib.import_module(f"nelsonlab.{mod}"), attr)]
    assert functions and missing == []
