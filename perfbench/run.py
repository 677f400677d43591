"""Benchmark of nelsonlab: three workloads through ``nelsonlab.cli.main``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep_q2 --seed 0 --seconds 25 --trace 0

Every measured command call runs in a fresh child process (child.py) with
BLAS pinned to one thread.  The run repeats whole rounds until ``--seconds``
have passed, checks every call's outputs, and prints as its last line one
JSON object: ``correct``, ``attempted`` and ``failed`` operations (the
command calls and the correctness checks) and the metrics.  With
``--trace 0`` these are the end-to-end metrics (medians over the run's
calls); with ``--trace 1`` a round is two traced calls, and the metrics are
the per-layer ones from tracer.py.

The seed picks the direction of the total momentum P at |P| = 1/6 (see
`momentum`); seed 0 gives P = (1/6, 0, 0), the acceptance suite's
configuration.  The program receives only the generated ``--P``.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads, here and (through the environment) in children
_PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS")}
os.environ.update(_PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT = 60.0
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


@dataclass
class Workload:
    """Inputs of one workload."""

    name: str
    seed: int
    P: tuple = ()
    coupling: float = 0.1
    epsilon: float = 0.5
    scales: int = 4
    sigma: float = 0.125
    cap: int = 2
    n_modes: int = 0
    ini: str = ""
    args: list = field(default_factory=list)
    modules: tuple = ()
    checks: tuple = ()
    trace_checks: tuple = ()

    def argv(self, out: str, ini_path: str) -> list:
        p = ",".join(repr(float(x)) for x in self.P)
        head = [self.args[0]] + (["--config", ini_path] if self.ini else [])
        return head + self.args[1:] + [f"--P={p}", "--out", out]


def momentum(seed: int) -> tuple:
    """Seed -> P at |P| = 1/6 in the grid's equator plane, at azimuth
    120 * (seed mod 3) degrees: the x axis for seed 0 and its two images
    under the grid's three-fold rotation.  All three do the same work (the
    rotation only permutes modes), while other directions change the
    eigensolvers' matvec counts several-fold."""
    phi = 2.0 * math.pi * (seed % 3) / 3.0
    return (math.cos(phi) / 6.0, math.sin(phi) / 6.0, 0.0)


def make_workload(name: str, seed: int, sizes: str = "full") -> Workload:
    """`sizes` is "full", or "tiny" for the self-test."""
    import checks as C
    tiny = sizes == "tiny"
    w = Workload(name=name, seed=seed, P=momentum(seed))
    sweep_modules = ("multiscale", "svgplot")
    if name == "sweep_q2":
        w.scales = 2 if tiny else 4
        w.args = ["sweep", "--scales", str(w.scales), "--epsilon", str(w.epsilon),
                  "--photon-cap", "2"]
        w.modules = sweep_modules
        w.checks = (C.rows_complete, C.energies_monotone, C.gap_floor,
                    C.contour_gap_positive, C.c_energy_spread, C.f1_bound_spread,
                    C.dense_bare_scales, C.manifest_hashes)
    elif name == "resume_q2":
        w.scales = 2 if tiny else 4
        w.ini = "[sweep]\nlambdas = 0.05 0.1\n"
        w.args = ["sweep", "--scales", str(w.scales), "--epsilon", str(w.epsilon),
                  "--photon-cap", "2"]
        w.modules = sweep_modules
        w.checks = (C.resume_ledgers_equal, C.manifest_hashes)
        w.trace_checks = (C.resume_no_eigensolve,)
    elif name == "pullthrough_q3":
        w.sigma = 0.5 if tiny else 0.125
        w.cap = 3
        w.ini = "[sweep]\nmax_probes = 24\n"
        w.args = ["wavefunctions", "--sigma", repr(w.sigma), "--photon-cap", "3",
                  "--q-max", "3"]
        w.modules = ("wavefunctions", "dressing", "fock", "grid")
        w.n_modes = len(C.own_grid([C.KAPPA, w.sigma])[1])
        w.checks = (C.table_sizes, C.f1_cg, C.exactness_routes, C.manifest_hashes)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return w


WORKLOADS = ("sweep_q2", "resume_q2", "pullthrough_q3")


# ---------------------------------------------------------------------------
# child processes


class Runner:
    """Spawns measured calls for one workload under one scratch directory."""

    def __init__(self, work: Workload, base: str):
        self.work = work
        self.base = base
        self.n = 0
        self.ini_path = os.path.join(base, "workload.ini")
        os.makedirs(base, exist_ok=True)
        if work.ini:
            with open(self.ini_path, "w") as fh:
                fh.write(work.ini)

    def call(self, out: str, trace: bool) -> dict:
        """One command call in a fresh process; returns its record.  The
        child runs inside the parent of `out` and writes to the relative
        path ``out``, so the config echoed in every manifest is the same."""
        self.n += 1
        tag = os.path.join(self.base, f"call{self.n:03d}")
        spec = {"src": SRC, "modules": list(self.work.modules),
                "argv": self.work.argv("out", self.ini_path), "trace": trace,
                "record": tag + ".record.json"}
        env = dict(os.environ, PYTHONHASHSEED="0", **_PINNED)
        env.pop("NELSON_LAB_OUT", None)
        with open(tag + ".log", "w") as log:
            spec["t_spawn"] = time.monotonic()
            with open(tag + ".spec.json", "w") as fh:
                json.dump(spec, fh)
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                                     tag + ".spec.json"], stdout=log,
                                    stderr=subprocess.STDOUT, env=env,
                                    cwd=os.path.dirname(out))
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                code = -9
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        record = {"rc": code}
        if code == 0:
            with open(spec["record"]) as fh:
                record = json.load(fh)
        if record.get("spans"):
            with open(record["spans"]) as fh:
                record["spans"] = json.load(fh)["spans"]
        record["out"] = out
        return record

    def fresh(self, label: str) -> str:
        """A new, empty output path `<label><n>/out`."""
        parent = os.path.join(self.base, f"{label}{self.n + 1:03d}")
        shutil.rmtree(parent, ignore_errors=True)
        os.makedirs(parent)
        return os.path.join(parent, "out")


# ---------------------------------------------------------------------------
# one run


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def check(self, check, res, rc_ok: bool):
        """Count one check; a check on a failed call fails with it."""
        self.attempted += 1
        if not rc_ok:
            self.failed += 1
            return
        try:
            ok, detail = check(res)
        except (ArithmeticError, ValueError, OSError, KeyError, IndexError) as exc:
            ok, detail = False, f"raised {exc!r}"
        if not ok:
            self.failed += 1
            self.wrong += 1
            print(f"check {check.__name__} FAILED: {detail}", file=sys.stderr)

    def call(self, record) -> bool:
        self.attempted += 1
        ok = record["rc"] == 0
        if not ok:
            self.failed += 1
            print(f"call failed with code {record['rc']}", file=sys.stderr)
        return ok


def _prepare(runner: Runner, trace: bool):
    """Untimed preparation: resume_q2's checkpoint writer and, for a traced
    run, the untraced reference call.  Returns (writer dir, reference dir)."""
    writer = ref = None
    if runner.work.name == "resume_q2":
        writer = runner.fresh("writer")
        if runner.call(writer, trace=False)["rc"] != 0:
            raise RuntimeError("writing the resume checkpoints failed")
    if trace:
        ref = _fresh_output(runner, writer)
        if runner.call(ref, trace=False)["rc"] != 0:
            raise RuntimeError("untraced reference call failed")
    return writer, ref


def _fresh_output(runner: Runner, writer: str | None) -> str:
    """A new output directory; for resume_q2 it holds a copy of the
    writer's checkpoints and nothing else."""
    out = runner.fresh("out")
    if writer is not None:
        shutil.copytree(os.path.join(writer, "checkpoints"),
                        os.path.join(out, "checkpoints"))
    return out


def run(work: Workload, seconds: float, trace: bool, base: str) -> dict:
    from checks import counts_repeat, traced_outputs_equal
    from tracer import LAYER_METRICS, layer_metrics, tree_bytes
    runner = Runner(work, base)
    t_prep = time.monotonic()
    writer, ref = _prepare(runner, trace)
    print(f"[{work.name}] P = {work.P}, preparation "
          f"{time.monotonic() - t_prep:.2f} s", file=sys.stderr)

    tally = Tally()
    samples: dict[str, list] = {}
    t0 = time.monotonic()
    rounds = 0
    while rounds == 0 or time.monotonic() - t0 < seconds:
        rounds += 1
        calls = [runner.call(_fresh_output(runner, writer), trace)
                 for _ in range(2 if trace else 1)]
        oks = [tally.call(rec) for rec in calls]
        first = dict(calls[0], work=work, ref=writer)
        for check in work.checks:
            tally.check(check, first, oks[0])
        if trace:
            counts = [layer_metrics(rec["spans"], tree_bytes(rec["out"]))
                      if ok else None for rec, ok in zip(calls, oks)]
            for check in work.trace_checks:
                tally.check(check, first, oks[0])
            for rec, ok in zip(calls, oks):
                tally.check(traced_outputs_equal, dict(rec, ref=ref), ok)
            tally.check(counts_repeat, {"counts": counts}, all(oks))
            for values in filter(None, counts):
                for name, value in values.items():
                    samples.setdefault(name, []).append(value)
        else:
            if oks[0]:
                for name, _ in END_TO_END:
                    samples.setdefault(name, []).append(calls[0][name])
        for rec in calls:
            shutil.rmtree(os.path.dirname(rec["out"]), ignore_errors=True)
        wall = [round(r.get("wall_s", math.nan), 3) for r in calls]
        print(f"[{work.name}] round {rounds}: wall_s {wall}", file=sys.stderr)

    metrics = {}
    for name, unit in LAYER_METRICS if trace else END_TO_END:
        vals = samples.get(name)
        value = None  # no call succeeded
        if vals:  # counts repeat exactly; times and sizes take the median
            value = statistics.median(vals) if unit in ("s", "MB") \
                else statistics.median_low(vals)
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sizes", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the self-test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nelsonlab", "cli.py")):
        print(f"no nelsonlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    work = make_workload(args.workload, args.seed, args.sizes)
    base = os.path.join(WORK_DIR, f"{work.name}-{os.getpid()}")
    try:
        result = run(work, args.seconds, bool(args.trace), base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(json.dumps(result))
    measured = all(m["value"] is not None for m in result["metrics"].values())
    return 0 if result["correct"] and measured else 1


if __name__ == "__main__":
    sys.exit(main())
