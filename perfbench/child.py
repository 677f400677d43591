"""One measured command call, in a fresh process.

Usage: python child.py SPEC_JSON

SPEC_JSON is a file with keys ``src`` (the checkout's source directory),
``modules`` (nelsonlab modules the command loads), ``argv`` (arguments of
``nelsonlab.cli.main``), ``t_spawn`` (the parent's ``time.monotonic()``
just before it started this process), ``trace`` and ``record`` (where the
result goes).  Imports and config resolution happen before the timed call,
so ``wall_s`` and ``cpu_s`` cover the command alone and ``setup_s`` covers
interpreter start, imports and config resolution.
"""

import importlib
import json
import os
import resource
import sys
import time


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    cli = importlib.import_module("nelsonlab.cli")
    for name in spec["modules"]:
        importlib.import_module(f"nelsonlab.{name}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(f"{os.getpid()}-{time.time_ns()}").install()
    cli.load_config(cli.build_parser().parse_args(spec["argv"]))

    t_call = time.monotonic()
    cpu0 = _cpu()
    rc = cli.main(spec["argv"])
    cpu1 = _cpu()
    t_end = time.monotonic()

    record = {
        "rc": rc,
        "setup_s": t_call - spec["t_spawn"],
        "wall_s": t_end - t_call,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["spans"] = spec["record"] + ".spans.json"
        tracer.dump(record["spans"])
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
