"""Every name a module exports must exist, so that deletions leave no
stale entries in __all__, and every function the benchmark's tracer wraps
must exist under its name and return what the tracer reads."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import nelsonlab
from nelsonlab.fiberop import assemble, nelson_hamiltonian, transformed_hamiltonian
from nelsonlab.fock import build_basis
from nelsonlab.grid import GridSpec, ModelParams, build_grid

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


@pytest.mark.parametrize("dressed", [False, True], ids=["bare", "dressed"])
def test_assembled_operators_carry_what_the_tracer_reads(dressed):
    # the tracer records assemble(...).nnz and the nnz and shape of every
    # operator a solve receives; the solves read diagonal()
    params = ModelParams(coupling=0.1, sigma=0.25, P=(1 / 6, 0.0, 0.0))
    grid = build_grid(params, GridSpec(2, 2, 2))
    basis = build_basis(grid.n_modes, 2)
    op = (transformed_hamiltonian(params, grid, [0.1, 0.0, 0.0]) if dressed
          else nelson_hamiltonian(params, grid))
    H = assemble(op, basis)
    assert isinstance(H.nnz, int) and H.nnz > basis.dim
    assert H.shape == (basis.dim, basis.dim)
    assert H.diagonal().shape == (basis.dim,)
