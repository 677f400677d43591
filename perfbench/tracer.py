"""Outside-in span tracer for nelsonlab, installed from the benchmark.

`Tracer.install()` wraps public functions of each nelsonlab module wherever
a module has bound them (``multiscale`` and ``dressing`` import names
directly, so every module dictionary holding the original object gets the
wrapper), and adds counting hooks at the scipy boundary: ``eigsh`` and
``minres`` as bound in ``nelsonlab.spectral``.  Nothing under ``src/`` is
edited.  Spans stay in memory and are written once, by `Tracer.dump`, when
the traced run ends.

`layer_metrics` folds a span list into the per-layer metrics named in
``LAYER_METRICS``: ``<span>.s`` is self time (span minus its child spans),
``.total_s`` inclusive time, the rest counts.
"""

from __future__ import annotations

import functools
import json
import os
import time

_clock = time.perf_counter

SWEEP_SCALES = 4  # multiscale.scale.<n>.s is reported for n = 1..SWEEP_SCALES

# (metric name, unit); every traced run reports all of them, 0 where a
# workload does not reach the layer
LAYER_METRICS = [
    ("fock.build_basis.s", "s"),
    ("fock.build_basis.states", "count"),
    ("fock.embed.s", "s"),
    ("fock.apply_displacement.s", "s"),
    ("fock.state_csv_write.s", "s"),
    ("fock.state_csv_read.s", "s"),
    ("fock.state_csv.bytes", "bytes"),
    ("fiberop.assemble.s", "s"),
    ("fiberop.assemble.calls", "count"),
    ("fiberop.assemble.nnz", "count"),
    ("fiberop.assemble_vector_component.s", "s"),
    ("fiberop.transformed_hamiltonian.s", "s"),
    ("spectral.ground_state.s", "s"),
    ("spectral.ground_state.calls", "count"),
    ("spectral.ground_state.dense_calls", "count"),
    ("spectral.ground_state.matvecs", "count"),
    ("spectral.solve_reduced_resolvent.s", "s"),
    ("spectral.solve_reduced_resolvent.calls", "count"),
    ("spectral.solve_reduced_resolvent.matvecs", "count"),
    ("spectral.solve_shifted.s", "s"),
    ("spectral.solve_shifted.calls", "count"),
    ("spectral.solve_shifted.matvecs", "count"),
    ("spectral.contour_sup_norm.s", "s"),
    ("spectral.contour_sup_norm.calls", "count"),
    ("spectral.nnz_streamed", "count"),
    ("dressing.dressed_ground_state.s", "s"),
    ("dressing.dispersion_probe.total_s", "s"),
    ("dressing.dispersion_probe.probes", "count"),
    ("derivatives.total_s", "s"),
    ("derivatives.reduced_solves", "count"),
    ("wavefunctions.froehlich_fq.s", "s"),
    ("wavefunctions.froehlich_fq.calls", "count"),
    ("wavefunctions.froehlich_f1.s", "s"),
    ("wavefunctions.extract_fq.s", "s"),
    *[(f"multiscale.scale.{n}.s", "s") for n in range(1, SWEEP_SCALES + 1)],
    ("multiscale.run_sweep.s", "s"),
    ("grid.refine_annulus.s", "s"),
    ("svgplot.loglog_svg.s", "s"),
    ("cli.finish.s", "s"),
    ("cli.output_bytes", "bytes"),
]

# counts that must repeat exactly between two traced runs at one seed;
# cli.output_bytes is left out because the ledger's wall_time cells vary
# in length
EXACT_COUNTS = [name for name, unit in LAYER_METRICS
                if unit != "s" and name != "cli.output_bytes"]

# span name -> (module, attribute); module functions are rebound wherever
# they are referenced, methods are replaced on their class
_FUNCTIONS = {
    "fock.build_basis": ("fock", "build_basis"),
    "fock.embed": ("fock", "embed"),
    "fock.apply_displacement": ("fock", "apply_displacement"),
    "fiberop.assemble": ("fiberop", "assemble"),
    "fiberop.assemble_vector_component": ("fiberop", "assemble_vector_component"),
    "fiberop.transformed_hamiltonian": ("fiberop", "transformed_hamiltonian"),
    "spectral.ground_state": ("spectral", "ground_state"),
    "spectral.solve_reduced_resolvent": ("spectral", "solve_reduced_resolvent"),
    "spectral.solve_shifted": ("spectral", "solve_shifted"),
    "spectral.contour_sup_norm": ("spectral", "contour_sup_norm"),
    "dressing.dressed_ground_state": ("dressing", "dressed_ground_state"),
    "dressing.dispersion_probe": ("dressing", "dispersion_probe"),
    "derivatives.phi_first_derivatives": ("derivatives", "phi_first_derivatives"),
    "derivatives.hessian_E": ("derivatives", "hessian_E"),
    "derivatives.third_derivative_E": ("derivatives", "third_derivative_E"),
    "derivatives.scaling_norms": ("derivatives", "scaling_norms"),
    # the sweep's derivative stage: the four calls above plus one direct
    # reduced solve, about 9 per scale
    "derivatives.sweep_stage": ("multiscale", "_derivative_quantities"),
    "wavefunctions.extract_fq": ("wavefunctions", "extract_fq"),
    "wavefunctions.froehlich_fq": ("wavefunctions", "froehlich_fq"),
    "wavefunctions.froehlich_f1": ("wavefunctions", "froehlich_f1"),
    "grid.refine_annulus": ("grid", "refine_annulus"),
    "svgplot.loglog_svg": ("svgplot", "loglog_svg"),
}
_MODULES = ("grid", "fock", "fiberop", "spectral", "dressing", "derivatives",
            "wavefunctions", "multiscale", "svgplot", "cli")


def _nnz(H) -> int:
    return int(H.nnz) if hasattr(H, "nnz") else int(getattr(H, "size", 0))


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": _clock(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict):
        span["end"] = _clock()
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """fn inside a span; note(attrs, args, kwargs, result) adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(span["attrs"], args, kwargs, result)
                return result
            finally:
                self._close(span)
        return traced

    def _bump(self, key: str):
        """Count one event on the innermost open span."""
        if self._stack:
            attrs = self._stack[-1]["attrs"]
            attrs[key] = attrs.get(key, 0) + 1

    # -- installation -------------------------------------------------------

    def install(self):
        import importlib

        import scipy.sparse as sp
        from scipy.sparse.linalg import LinearOperator

        mods = {m: importlib.import_module(f"nelsonlab.{m}") for m in _MODULES}

        def rebind(original, replacement):
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)

        notes = {
            "fock.build_basis": lambda a, args, kw, r: a.update(
                states=r.dim, n_max=r.n_max),
            "fiberop.assemble": lambda a, args, kw, r: a.update(nnz=r.nnz),
            "spectral.ground_state": lambda a, args, kw, r: a.update(
                dim=args[0].shape[0], nnz=_nnz(args[0])),
            "spectral.solve_reduced_resolvent": lambda a, args, kw, r: a.update(
                nnz=_nnz(args[0])),
            "spectral.solve_shifted": lambda a, args, kw, r: a.update(
                nnz=_nnz(args[0])),
        }
        for name, (mod, attr) in _FUNCTIONS.items():
            original = getattr(mods[mod], attr)
            rebind(original, self.wrap(name, original, notes.get(name)))

        # StateVector CSV round trips and the manifest writer are methods
        StateVector = mods["fock"].StateVector
        StateVector.to_csv = self.wrap(
            "fock.state_csv_write", StateVector.to_csv,
            lambda a, args, kw, r: a.update(bytes=len(r)))
        StateVector.from_csv = staticmethod(self.wrap(
            "fock.state_csv_read", StateVector.from_csv,
            lambda a, args, kw, r: a.update(bytes=len(args[0]))))
        RunContext = mods["cli"].RunContext
        RunContext.finish = self.wrap("cli.finish", RunContext.finish)

        # run_sweep: a progress hook stamps the end of every scale
        run_sweep = mods["multiscale"].run_sweep
        tracer = self

        @functools.wraps(run_sweep)
        def traced_run_sweep(config, checkpoint_dir=None, progress=None):
            span = tracer._open("multiscale.run_sweep")
            marks = span["attrs"].setdefault("marks", [])

            def stamp(row):
                marks.append([int(row.n), _clock()])
                if progress is not None:
                    progress(row)
            try:
                return run_sweep(config, checkpoint_dir=checkpoint_dir,
                                 progress=stamp)
            finally:
                tracer._close(span)
        rebind(run_sweep, traced_run_sweep)

        # scipy boundary: count matvecs of eigsh and minres
        class Counting(LinearOperator):
            def __init__(self, A):
                super().__init__(A.dtype, A.shape)
                self.A = A

            def _matvec(self, x):
                tracer._bump("matvecs")
                return self.A.dot(x) if sp.issparse(self.A) else self.A.matvec(x)

        spectral = mods["spectral"]
        eigsh, minres = spectral.eigsh, spectral.minres

        @functools.wraps(eigsh)
        def counted_eigsh(A, *args, **kwargs):
            tracer._bump("eigsh_calls")
            if kwargs.get("sigma") is None and sp.issparse(A):
                A = Counting(A)  # shift-invert needs the matrix itself
            return eigsh(A, *args, **kwargs)

        @functools.wraps(minres)
        def counted_minres(A, *args, **kwargs):
            tracer._bump("minres_calls")
            return minres(Counting(A), *args, **kwargs)

        spectral.eigsh = counted_eigsh
        spectral.minres = counted_minres
        return self

    def dump(self, path):
        """Write every span, stamped with the run id, once."""
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "spans": [dict(s, run_id=self.run_id) for s in self.spans]},
                      fh)


# ---------------------------------------------------------------------------
# aggregation


def _durations(spans):
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    return dur, child


def _has_ancestor(spans, span, prefix: str) -> bool:
    p = span["parent"]
    while p is not None:
        if spans[p]["name"].startswith(prefix):
            return True
        p = spans[p]["parent"]
    return False


def layer_metrics(spans: list, output_bytes: int) -> dict:
    """Per-layer metric values (every name in LAYER_METRICS) for one run."""
    from nelsonlab.spectral import DENSE_CUTOFF
    out = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_METRICS}
    dur, child = _durations(spans)
    for s, d, c in zip(spans, dur, child):
        name, attrs = s["name"], s["attrs"]
        if f"{name}.s" in out:
            out[f"{name}.s"] += d - c
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        if f"{name}.matvecs" in out:
            out[f"{name}.matvecs"] += attrs.get("matvecs", 0)
        out["spectral.nnz_streamed"] += attrs.get("matvecs", 0) * attrs.get("nnz", 0)
        if name == "fock.build_basis":
            out["fock.build_basis.states"] += attrs["states"]
        elif name.startswith("fock.state_csv"):
            out["fock.state_csv.bytes"] += attrs["bytes"]
        elif name == "fiberop.assemble":
            out["fiberop.assemble.nnz"] += attrs["nnz"]
        elif name == "spectral.ground_state":
            out["spectral.ground_state.dense_calls"] += int(1 < attrs["dim"] <= DENSE_CUTOFF)
        elif name == "dressing.dispersion_probe":
            out["dressing.dispersion_probe.total_s"] += d
        elif name == "multiscale.run_sweep":
            prev = s["start"]
            for n, t in attrs["marks"]:
                key = f"multiscale.scale.{n}.s"
                if key in out:
                    out[key] += t - prev
                prev = t
        if name.startswith("derivatives.") and not _has_ancestor(spans, s, "derivatives."):
            out["derivatives.total_s"] += d
        if name == "spectral.solve_reduced_resolvent" \
                and _has_ancestor(spans, s, "derivatives."):
            out["derivatives.reduced_solves"] += 1
        if name == "spectral.ground_state" \
                and _has_ancestor(spans, s, "dressing.dispersion_probe"):
            out["dressing.dispersion_probe.probes"] += 1
    out["cli.output_bytes"] = int(output_bytes)
    return out


def eigensolves_beyond_trivial(spans: list) -> int:
    """Ground-state calls on more than one state plus all eigsh calls: a
    resume that only reloads checkpoints makes none (scale 0 is dim 1)."""
    return sum(1 for s in spans if s["name"] == "spectral.ground_state"
               and (s["attrs"]["dim"] > 1 or s["attrs"].get("eigsh_calls", 0)))


def tree_bytes(root) -> int:
    total = 0
    for base, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total
