"""Reference outputs: no reported number moves without a NUMERICS_VERSION bump.

`tests/reference/v<NUMERICS_VERSION>/<run>/` holds the files each run in
RUNS writes, as `nelson-lab` wrote them at one BLAS thread.  The tests
recompute every run in-process and compare every column and every JSON
value: strings and integers exactly, other numbers to RELATIVE, except the
columns in ABSOLUTE, whose values are rounding.  `wall_time` is not
compared.  A change that moves a reported digit bumps
`multiscale.NUMERICS_VERSION` and writes the new version's reference:

    PYTHONPATH=src python tests/test_reference.py

(`main` pins one BLAS thread before numpy loads.)  It writes only
`tests/reference/v<NUMERICS_VERSION>/`.
"""

import csv
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from nelsonlab.cli import main

REFERENCE = Path(__file__).resolve().parent / "reference"

# run -> (command line, files compared).  The sweeps run the acceptance
# configuration, which is the default one: GridSpec(4, 3, 3), lambda 0.1,
# P = (1/6, 0, 0), epsilon 0.5, photon cap 2; the second at photon cap 3.
RUNS = {
    "sweep_q2": (["sweep", "--scales", "5", "--epsilon", "0.5"],
                 ("ledger_lam0p1.csv", "sweep_fits.json")),
    "sweep_q3": (["sweep", "--scales", "3", "--epsilon", "0.5",
                  "--photon-cap", "3"],
                 ("ledger_lam0p1.csv", "sweep_fits.json")),
    "wavefunctions": (["wavefunctions", "--sigma", "0.5", "--photon-cap", "3",
                       "--q-max", "3"],
                      ("f1.csv", "f2.csv", "f3.csv", "wavefunctions.json")),
}

RELATIVE = 1e-9
# Columns whose values are rounding, bounded absolutely: 100 times the
# largest difference between runs at one and at two BLAS threads, rounded
# up to a power of ten.  Measured on both sweeps: transfer_defect 2.8e-17,
# grad_e_y 3.4e-18, grad_e_z 1.7e-18, energy_mismatch 1.3e-16 (3.4e-9
# relative) and grad_defect_norm 2.7e-17.
ABSOLUTE = {
    "transfer_defect": 1e-14,
    "grad_e_y": 1e-15,
    "grad_e_z": 1e-15,
    "energy_mismatch": 1e-13,
    "grad_defect_norm": 1e-14,
}
SKIPPED = {"wall_time"}


def reference_dir() -> Path:
    from nelsonlab.multiscale import NUMERICS_VERSION
    return REFERENCE / f"v{NUMERICS_VERSION}"


def run(name: str, out: Path):
    argv, _ = RUNS[name]
    assert main([*argv, "--out", str(out)]) == 0, f"{name} failed"


def _number(cell: str):
    """int or float for a numeric cell, None for any other string."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return None


def mismatch(column: str, ref, new) -> str | None:
    """Why a recomputed value fails its reference, or None when it holds."""
    if type(ref) is not type(new):
        return f"{new!r} is not a {type(ref).__name__} like {ref!r}"
    if not isinstance(ref, float):
        return None if ref == new else f"{new!r} != {ref!r}"
    if ref == new or (math.isnan(ref) and math.isnan(new)):
        return None
    gap = abs(new - ref)
    if column in ABSOLUTE:
        bound = ABSOLUTE[column]
    else:
        bound = RELATIVE * max(abs(ref), abs(new))
    return None if gap <= bound else f"{new!r} vs {ref!r}: off by {gap:.3e} > {bound:.3e}"


def compare_csv(ref_text: str, new_text: str) -> list:
    ref_rows = list(csv.reader(ref_text.splitlines()))
    new_rows = list(csv.reader(new_text.splitlines()))
    assert new_rows[0] == ref_rows[0], "columns differ"
    assert len(new_rows) == len(ref_rows), "row counts differ"
    faults = []
    for i, (ref_row, new_row) in enumerate(zip(ref_rows[1:], new_rows[1:]), 1):
        for column, ref, new in zip(ref_rows[0], ref_row, new_row):
            if column in SKIPPED:
                continue
            if not column.endswith("_hash"):  # hex digits may read as a number
                ref, new = (cell if _number(cell) is None else _number(cell)
                            for cell in (ref, new))
            why = mismatch(column, ref, new)
            if why:
                faults.append(f"row {i} {column}: {why}")
    return faults


def compare_json(ref, new, path="") -> list:
    if isinstance(ref, dict) and isinstance(new, dict):
        if ref.keys() != new.keys():
            return [f"{path or '/'}: keys {sorted(new)} != {sorted(ref)}"]
        return [fault for key in ref
                for fault in compare_json(ref[key], new[key], f"{path}/{key}")]
    if isinstance(ref, list) and isinstance(new, list):
        if len(ref) != len(new):
            return [f"{path}: length {len(new)} != {len(ref)}"]
        return [fault for i, (r, n) in enumerate(zip(ref, new))
                for fault in compare_json(r, n, f"{path}[{i}]")]
    why = mismatch(path.rsplit("/", 1)[-1], ref, new)
    return [f"{path}: {why}"] if why else []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reference_run_reproduces_every_value(tmp_path, name):
    ref_dir = reference_dir() / name
    _, files = RUNS[name]
    missing = [f for f in files if not (ref_dir / f).is_file()]
    assert not missing, (f"no reference {missing} under {ref_dir}: a new "
                         "NUMERICS_VERSION needs `python tests/test_reference.py`")
    run(name, tmp_path)
    for f in files:
        ref_text = (ref_dir / f).read_text()
        new_text = (tmp_path / f).read_text()
        if f.endswith(".csv"):
            faults = compare_csv(ref_text, new_text)
        else:
            faults = compare_json(json.loads(ref_text), json.loads(new_text))
        assert not faults, f"{name}/{f}:\n" + "\n".join(faults[:20])


def test_comparison_sees_a_moved_digit():
    header = "n,energy,transfer_defect,grid_hash,wall_time"
    ref = f"{header}\n1,0.5,1e-13,ab12,0.1\n"
    assert compare_csv(ref, f"{header}\n1,0.5000000001,1.05e-13,ab12,9.0\n") == []
    assert len(compare_csv(ref, f"{header}\n1,0.500000001,1e-13,ab12,0.1\n")) == 1
    assert len(compare_csv(ref, f"{header}\n1,0.5,1.2e-13,ab12,0.1\n")) == 1
    assert len(compare_csv(ref, f"{header}\n2,0.5,1e-13,ab13,0.1\n")) == 2
    assert compare_json({"a": [1, 0.5, None]}, {"a": [1, 0.5 + 1e-12, None]}) == []
    assert len(compare_json({"a": [1, 0.5]}, {"a": [1.0, 0.6]})) == 2


def regenerate():
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_, files) in RUNS.items():
            out = Path(tmp) / name
            run(name, out)
            target = reference_dir() / name
            target.mkdir(parents=True, exist_ok=True)
            for f in files:
                shutil.copyfile(out / f, target / f)
            print(f"{name}: {', '.join(files)} -> {target}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
