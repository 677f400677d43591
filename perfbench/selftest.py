"""Fast self-test of the benchmark (about a minute on two cores).

    python3 perfbench/selftest.py

On tiny inputs it asserts that
* every workload runs, in both modes, with no failed operation and reports
  exactly the metric names and units of BENCHMARK.json;
* every correctness check passes on good outputs and fails on its negative
  control;
* the benchmark exits non-zero, printing no result, where no sources are.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run as bench  # noqa: E402
from tracer import layer_metrics, tree_bytes  # noqa: E402


def _run_bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    assert [w["name"] for w in config["workloads"]] == list(bench.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in config[key]}
        for workload in bench.WORKLOADS:
            code, lines = _run_bench(["--workload", workload, "--seed", "3",
                                      "--seconds", "1", "--trace", str(trace),
                                      "--sizes", "tiny"])
            result = json.loads(lines[-1])
            assert code == 0 and result["correct"] and result["failed"] == 0, \
                (workload, trace, result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, key, set(got) ^ set(want))
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")


def negative_controls(workload, base):
    work = bench.make_workload(workload, 3, "tiny")
    runner = bench.Runner(work, base)
    writer, ref = bench._prepare(runner, trace=True)
    calls = [runner.call(bench._fresh_output(runner, writer), trace=True)
             for _ in range(2)]
    assert all(c["rc"] == 0 for c in calls)
    counts = [layer_metrics(c["spans"], tree_bytes(c["out"])) for c in calls]
    good = [(chk, dict(calls[0], work=work, ref=writer))
            for chk in work.checks + work.trace_checks]
    good += [(checks.traced_outputs_equal, dict(calls[0], ref=ref)),
             (checks.counts_repeat, {"counts": counts})]
    for chk, res in good:
        ok, detail = chk(res)
        assert ok, (workload, chk.__name__, detail)
        bad = copy.deepcopy(res)
        if "out" in bad:
            bad["out"] = os.path.join(base, "damaged")
            shutil.rmtree(bad["out"], ignore_errors=True)
            shutil.copytree(res["out"], bad["out"])
        checks.corrupt(chk, bad)
        ok, detail = chk(bad)
        assert not ok, (workload, chk.__name__, "negative control passed")
        print(f"ok  {workload}: {chk.__name__} passes, its control fails ({detail})")


def no_sources():
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_work")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run_bench(["--workload", "sweep_q2", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"], cwd=bare)
        assert code != 0 and not lines, (code, lines)
        print(f"ok  without sources: exit code {code}, no result")


def main():
    os.makedirs(bench.WORK_DIR, exist_ok=True)
    metric_names()
    for workload in bench.WORKLOADS:
        base = os.path.join(bench.WORK_DIR, f"selftest-{workload}")
        try:
            negative_controls(workload, base)
        finally:
            shutil.rmtree(base, ignore_errors=True)
    no_sources()
    print("self-test passed")


if __name__ == "__main__":
    main()
