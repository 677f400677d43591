"""Regenerate the measured tables of perfbench/README.md.

    python3 perfbench/report.py summary    # one run of every workload
    python3 perfbench/report.py spread     # two interleaved sets of RUNS runs
    python3 perfbench/report.py overhead   # traced minus untraced wall_s
    python3 perfbench/report.py baseline   # per-scale table of a 6-scale sweep
    python3 perfbench/report.py deepest    # deepest scale within BUDGET_S

Each prints Markdown to standard output.  `spread` runs the benchmark
command itself (run.py) with the run length of BENCHMARK.json, alternating
which set goes first; the other reports spawn calls through run.py's
Runner, so they share its environment (BLAS pinned to one thread).
"""

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from tracer import layer_metrics, tree_bytes  # noqa: E402

RUNS = 10             # runs per set and workload, seeds 1..RUNS
PAIRS = 6             # untraced/traced call pairs per workload
BASELINE_SCALES = 6
DEEPEST_SCALES, BUDGET_S = 7, 30.0


def _config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _quartiles(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return med, q1, q3, (q3 - q1) / med


def _run(workload: str, seed: int, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], (workload, seed, proc.stderr[-2000:])
    return result


def summary(seed: int = 0):
    """Every workload once: each end-to-end metric's median over the run's
    calls, with the operations attempted and failed."""
    seconds = _config()["run_seconds"]
    print("| workload | metric | unit | median | attempted | failed |")
    print("|---|---|---|---|---|---|")
    for workload in bench.WORKLOADS:
        result = _run(workload, seed, seconds)
        for name, m in result["metrics"].items():
            print(f"| {workload} | {name} | {m['unit']} | {m['value']:.4g} "
                  f"| {result['attempted']} | {result['failed']} |")


def spread(runs: int = RUNS):
    cfg = _config()
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    print(f"{runs} runs per set, seeds 1..{runs}, {cfg['run_seconds']} s each; "
          "spread = (q3 - q1) / median; shift = median B / median A - 1\n")
    print("| workload | metric | bound | set A median [q1, q3] | spread A "
          "| set B median [q1, q3] | spread B | shift |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in bench.WORKLOADS:
        sets = {"A": {}, "B": {}}
        shares = {"A": set(), "B": set()}
        elapsed = []
        for i in range(runs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                t0 = time.monotonic()
                result = _run(workload, i + 1, cfg["run_seconds"])
                elapsed.append(time.monotonic() - t0)
                shares[side].add((result["failed"], result["attempted"]))
                for name, m in result["metrics"].items():
                    sets[side].setdefault(name, []).append(m["value"])
        for name, bound in bounds.items():
            a, b = _quartiles(sets["A"][name]), _quartiles(sets["B"][name])
            print(f"| {workload} | {name} | {bound} "
                  f"| {a[0]:.4g} [{a[1]:.4g}, {a[2]:.4g}] | {a[3]:.3f} "
                  f"| {b[0]:.4g} [{b[1]:.4g}, {b[2]:.4g}] | {b[3]:.3f} "
                  f"| {b[0] / a[0] - 1:+.3f} |")
        failed = {s: sorted({f / n for f, n in v}) for s, v in shares.items()}
        print(f"| {workload} | failed share | | {failed['A']} | | {failed['B']} | | |"
              f"\n| {workload} | seconds per run | | "
              f"{statistics.median(elapsed):.1f} (max {max(elapsed):.1f}) | | | | |")


def overhead(pairs: int = PAIRS):
    print("| workload | untraced wall_s | traced wall_s | overhead s | overhead |")
    print("|---|---|---|---|---|")
    for workload in bench.WORKLOADS:
        base = os.path.join(bench.WORK_DIR, f"report-{workload}")
        try:
            runner = bench.Runner(bench.make_workload(workload, 0), base)
            writer, _ = bench._prepare(runner, trace=False)
            walls = {False: [], True: []}
            for i in range(pairs):
                for trace in ((False, True) if i % 2 == 0 else (True, False)):
                    rec = runner.call(bench._fresh_output(runner, writer), trace)
                    walls[trace].append(rec["wall_s"])
                    shutil.rmtree(os.path.dirname(rec["out"]))
        finally:
            shutil.rmtree(base, ignore_errors=True)
        off, on = statistics.median(walls[False]), statistics.median(walls[True])
        print(f"| {workload} | {off:.3f} | {on:.3f} | {on - off:+.3f} "
              f"| {on / off - 1:+.1%} |")


def _sweep_call(scales: int, trace: bool):
    work = bench.make_workload("sweep_q2", 0)
    work.args = ["sweep", "--scales", str(scales), "--photon-cap", "2"]
    base = os.path.join(bench.WORK_DIR, "report-sweep")
    runner = bench.Runner(work, base)
    rec = runner.call(runner.fresh("out"), trace)
    with open(os.path.join(rec["out"], "ledger_lam0p1.csv")) as fh:
        rows = list(csv.DictReader(fh))
    return rec, rows, base


def baseline(scales: int = BASELINE_SCALES):
    rec, rows, base = _sweep_call(scales, trace=True)
    try:
        spans = rec["spans"]
        sweep = next(s for s in spans if s["name"] == "multiscale.run_sweep")
        edges = [sweep["start"]] + [t for _, t in sweep["attrs"]["marks"]]
        print(f"Fresh `sweep --scales {scales}` (Q = 2, P = (1/6, 0, 0)), "
              f"one traced call, wall_s {rec['wall_s']:.1f}, "
              f"peak RSS {rec['peak_rss_mb']:.0f} MB.\n")
        print("| n | M | dim | seconds | largest assembled nnz | extended basis |")
        print("|---|---|---|---|---|---|")
        for n, row in enumerate(rows):
            lo, hi = edges[n], edges[n + 1]
            inside = [s for s in spans if lo <= s["start"] < hi]
            nnz = max((s["attrs"]["nnz"] for s in inside
                       if s["name"] == "fiberop.assemble"), default=0)
            ext = max((s["attrs"]["states"] for s in inside
                       if s["name"] == "fock.build_basis"
                       and s["attrs"]["n_max"] == 3), default=0)
            print(f"| {n} | {row['n_modes']} | {row['dim']} | {hi - lo:.2f} "
                  f"| {nnz:,} | {ext:,} |")
        totals = layer_metrics(spans, tree_bytes(rec["out"]))
        print(f"\nWhole call: eigsh matvecs {totals['spectral.ground_state.matvecs']}, "
              f"reduced-resolvent matvecs "
              f"{totals['spectral.solve_reduced_resolvent.matvecs']}, "
              f"nnz streamed {totals['spectral.nnz_streamed']:,}.")
    finally:
        shutil.rmtree(base, ignore_errors=True)


def deepest(scales: int = DEEPEST_SCALES, budget: float = BUDGET_S):
    rec, rows, base = _sweep_call(scales, trace=False)
    shutil.rmtree(base, ignore_errors=True)
    spent, reached = 0.0, 0
    for row in rows:
        spent += float(row["wall_time"])
        if spent <= budget:
            reached = int(row["n"])
    print(f"Deepest scale of a fresh Q = 2 sweep within {budget:g} s of scale "
          f"time: n = {reached} (M = {rows[reached]['n_modes']}, dim "
          f"{rows[reached]['dim']}); all {len(rows) - 1} scales took "
          f"{spent:.1f} s (wall_s {rec['wall_s']:.1f}).")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("report", choices=("summary", "spread", "overhead", "baseline",
                                       "deepest"))
    {"summary": summary, "spread": spread, "overhead": overhead, "baseline": baseline,
     "deepest": deepest}[ap.parse_args().report]()


if __name__ == "__main__":
    main()
