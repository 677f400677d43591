"""Every name a module exports must exist, so that deletions leave no
stale entries in __all__; every function the benchmark's tracer wraps must
exist under its name and return what the tracer reads; and every name the
benchmark imports must still resolve and take the arguments it passes."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import nelsonlab
from nelsonlab import spectral
from nelsonlab.fiberop import assemble, nelson_hamiltonian, transformed_hamiltonian
from nelsonlab.fock import build_basis
from nelsonlab.grid import GridSpec, ModelParams, build_grid
from nelsonlab.wavefunctions import BareGround, froehlich_f1, froehlich_fq

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MODULES = sorted(m.name for m in pkgutil.iter_modules(nelsonlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nelsonlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _benchmark_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
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


def test_spectral_binds_the_solvers_the_tracer_rebinds():
    # the tracer counts solver matvecs by assigning `spectral.eigsh` and
    # `spectral.minres`; spectral must bind scipy's functions under those
    # names, or `--trace 1` breaks
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    hooks = {target.attr for node in ast.walk(tree) if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Attribute)
             and isinstance(target.value, ast.Name) and target.value.id == "spectral"}
    assert hooks == {"eigsh", "minres"}
    assert all(getattr(spectral, name) is getattr(scipy.sparse.linalg, name)
               for name in hooks)


LINEAR_SOLVERS = {"minres", "cg", "gmres", "bicgstab", "lgmres", "qmr",
                  "spsolve", "splu", "spilu", "factorized", "lstsq",
                  "solve_shifted"}


def _solver_reaches(tree):
    """Every way a tree reaches a linear solver: a call of a solver name,
    written as given (`solve_shifted`, `spectral.minres`), a call into a
    `linalg` module other than `norm`, and a `linalg` import."""
    reaches = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name in LINEAR_SOLVERS or (
                    isinstance(func, ast.Attribute) and name != "norm"
                    and ast.unparse(func.value).endswith("linalg")):
                reaches.append(ast.unparse(func))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) \
                and "linalg" in ast.unparse(node):
            reaches.append(ast.unparse(node))
    return reaches


def test_solver_guard_sees_every_route():
    snippet = ("x = np.linalg.solve(A, b)\n"
               "from scipy.sparse.linalg import spsolve\n"
               "spectral.solve_shifted(H, z, r)\n"
               "minres(A, b)\n"
               "y = np.linalg.norm(v) + solve_shifted(H, z, r)\n"
               "bg = BareGround.solve(params, grid, basis)\n")
    assert sorted(_solver_reaches(ast.parse(snippet))) == sorted([
        "np.linalg.solve", "from scipy.sparse.linalg import spsolve",
        "spectral.solve_shifted", "minres", "solve_shifted"])


def test_pullthrough_solves_go_through_the_bare_solve_shifted():
    # the tracer and the tests count shifted solves by rebinding the module
    # name `solve_shifted`; a solve reached any other way would escape both.
    # scipy's MINRES is called from one place in spectral, the reduced
    # resolvent's, where the tracer counts it; shifted solves run the block
    # MINRES, which only `solve_shifted` calls, so that every block goes
    # through the traced name
    wavefunctions = _solver_reaches(ast.parse((SRC / "wavefunctions.py").read_text()))
    assert wavefunctions and set(wavefunctions) == {"solve_shifted"}
    tree = ast.parse((SRC / "spectral.py").read_text())
    assert [r for r in _solver_reaches(tree)
            if r == "minres" or r.endswith(".minres")] == ["minres"]
    callers = [f.name for f in tree.body if isinstance(f, ast.FunctionDef)
               for node in ast.walk(f) if isinstance(node, ast.Call)
               and ast.unparse(node.func) == "_block_minres"]
    assert callers == ["solve_shifted"]


@pytest.mark.parametrize("dressed", [False, True], ids=["bare", "dressed"])
def test_assembled_operators_carry_what_the_tracer_reads(dressed):
    # the tracer records assemble(...).nnz and the nnz and shape of every
    # operator a solve receives, and the solves read diagonal()
    params = ModelParams(coupling=0.1, sigma=0.25, P=(1 / 6, 0.0, 0.0))
    grid = build_grid(params, GridSpec(2, 2, 2))
    basis = build_basis(grid.n_modes, 2)
    op = (transformed_hamiltonian(params, grid, [0.1, 0.0, 0.0]) if dressed
          else nelson_hamiltonian(params, grid))
    H = assemble(op, basis)
    assert isinstance(H.nnz, int) and H.nnz > basis.dim
    assert H.shape == (basis.dim, basis.dim)
    assert H.diagonal().shape == (basis.dim,)
    if not dressed:
        # the pull-through solves receive the bare H split at its top sector
        split = spectral.SchurSplit(H)
        assert split.shape == H.shape
        assert isinstance(split.nnz, int) and 0 < split.nnz < H.nnz
        assert np.array_equal(split.diagonal(), H.diagonal())


def _nelsonlab_imports(path):
    """(module, name) for every `from nelsonlab.<mod> import <name>` in a file,
    at any depth."""
    tree = ast.parse(path.read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("nelsonlab.")
            for alias in node.names]


def test_benchmark_imports_resolve():
    imports = [pair for name in ("checks.py", "tracer.py")
               for pair in _nelsonlab_imports(PERFBENCH / name)]
    missing = [f"{mod}.{name}" for mod, name in imports
               if not hasattr(importlib.import_module(mod), name)]
    assert imports and missing == []


def test_benchmark_calls_keep_their_signatures():
    # the benchmark's exactness check passes tol= to both pull-through
    # routines and builds a BareGround from six positional fields
    for fn in (froehlich_f1, froehlich_fq):
        assert "tol" in inspect.signature(fn).parameters
    inspect.signature(BareGround).bind(*range(6))


SRC = Path(nelsonlab.__file__).resolve().parent


def _assigned_methods(tree):
    """Every string constant assigned to a name `method` or passed as the
    `method` field of a `GroundStateRecord`, by position or keyword, also
    as one side of a conditional expression."""
    values = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "method" for t in node.targets):
            values.append(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "GroundStateRecord":
            values += node.args[4:5]
            values += [kw.value for kw in node.keywords if kw.arg == "method"]
    return {const.value for value in values for const in ast.walk(value)
            if isinstance(const, ast.Constant) and isinstance(const.value, str)}


def test_assigned_methods_guard_sees_every_branch():
    snippet = ('method = "dense"\n'
               'method = "a" if x else "b"\n'
               'other = "c"\n'
               'GroundStateRecord(1.0, v, g, 0.0, "d", None)\n'
               'GroundStateRecord(1.0, v, g, 0.0, method="e")\n')
    assert _assigned_methods(ast.parse(snippet)) == {"dense", "a", "b", "d", "e"}


def test_every_eigensolve_method_is_documented():
    # `ground_state` records the method in ground_state.json, whose format
    # lists every value it can take
    methods = _assigned_methods(ast.parse((SRC / "spectral.py").read_text()))
    formats = (SRC.parents[1] / "docs" / "formats.md").read_text()
    assert methods == {"diagonal", "dense", "feshbach", "lobpcg"}
    assert sorted(m for m in methods if f"`{m}`" not in formats) == []


def _occupation_row_reads(tree):
    """Lines that read a CSR field of `occupation`, directly or through a
    name bound to an expression over it."""
    def over_occupation(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "occupation"
                   for n in ast.walk(node))
    aliases = {target.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and over_occupation(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("indices", "data", "indptr")
            and (over_occupation(node.value)
                 or (isinstance(node.value, ast.Name) and node.value.id in aliases))]


def test_occupation_row_guard_sees_aliases():
    snippet = ("occ = basis.occupation[lo:hi]\n"
               "modes = np.repeat(occ.indices, occ.data)\n"
               "ptr = basis.occupation.indptr\n"
               "ok = basis.sectors[2].data\n")
    assert sorted(_occupation_row_reads(ast.parse(snippet))) == ["line 2", "line 2", "line 3"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_keep_their_choices_to_themselves(path):
    # each module keeps its internals: no `_private` name crosses a module
    # boundary, only cli.py defers imports into functions (so that --jobs
    # caps the BLAS threads before numpy loads), the dense-solve
    # threshold is read where the solver is chosen, and only fock.py knows
    # how `occupation` lays out a state's modes (others read `sectors`)
    tree = ast.parse(path.read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")
               and not alias.name.startswith("__")]
    assert private == []
    if path.name != "cli.py":
        deferred = [f"line {inner.lineno}" for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for inner in ast.walk(node)
                    if isinstance(inner, ast.ImportFrom) and inner.level > 0]
        assert deferred == []
    if path.name != "spectral.py":
        reads = [f"line {node.lineno}" for node in ast.walk(tree)
                 if (isinstance(node, ast.Name) and node.id == "DENSE_CUTOFF")
                 or (isinstance(node, ast.Attribute)
                     and node.attr == "DENSE_CUTOFF")
                 or (isinstance(node, ast.alias)
                     and node.name == "DENSE_CUTOFF")]
        assert reads == []
    if path.name != "fock.py":
        assert _occupation_row_reads(tree) == []
