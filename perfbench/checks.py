"""Correctness checks for the benchmark's workloads, with negative controls.

Every check takes a result dict (``out``: output directory of the call,
``work``: the workload, plus ``ref``, ``spans`` and ``counts`` where the
check needs them) and returns ``(passed, detail)``.  Every check has a
negative control: `corrupt` damages a copy of a good result so that the
check must fail (the self-test asserts both directions), in the spirit of
``nelson-lab verify --corrupt-weight``.

The recomputations made apart from the program (Fock basis, grid, bare
fiber Hamiltonian, dense spectrum, CG pull-through solves) live here and
import nothing from nelsonlab.  The exactness instance deliberately calls
the program's two wavefunction routes against each other.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg, eigsh

TOL = 1e-10          # the CLI's default solver tolerance
KAPPA = 1.0          # CLI defaults of the model and the grid
EPSILON0 = 0.2
SHELLS_PER_DECADE, N_POLAR, N_AZIMUTHAL = 4, 3, 3
CG_SAMPLE = 6        # modes per round checked by an independent CG solve


# ---------------------------------------------------------------------------
# independent model pieces


def own_grid(edges):
    """(k, w) of the annuli [edges[i+1], edges[i]], appended inward in the
    order the program refines: log-spaced shells at the volume-centroid
    radius, Gauss-Legendre in cos(theta) x uniform azimuth."""
    xi, wp = np.polynomial.legendre.leggauss(N_POLAR)
    dphi = 2.0 * math.pi / N_AZIMUTHAL
    k, w = [], []
    for hi, lo in zip(edges, edges[1:]):
        n = max(1, math.ceil(SHELLS_PER_DECADE * math.log10(hi / lo) - 1e-12))
        radii = np.logspace(math.log10(lo), math.log10(hi), n + 1)
        radii[0], radii[-1] = lo, hi
        for r0, r1 in zip(radii, radii[1:]):
            node = 0.75 * (r1**4 - r0**4) / (r1**3 - r0**3)
            for c, wc in zip(xi, wp):
                s = math.sqrt(max(0.0, 1.0 - c * c))
                for j in range(N_AZIMUTHAL):
                    phi = (j + 0.5) * dphi
                    k.append((node * s * math.cos(phi), node * s * math.sin(phi),
                              node * c))
                    w.append((r1**3 - r0**3) / 3.0 * wc * dphi)
    return np.array(k).reshape(-1, 3), np.array(w)


def own_form_factor(r, coupling, sigma):
    """v(|k|) = lambda chi(|k|) |k|^(-1/2) / sqrt 2 on |k| >= sigma, with the
    quintic smoothstep bridge on [(1 - eps0) kappa, kappa] (alpha_bar = 0)."""
    r = np.asarray(r, dtype=float)
    t = np.clip((r - (1.0 - EPSILON0) * KAPPA) / (EPSILON0 * KAPPA), 0.0, 1.0)
    chi = 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t)
    return np.where(r >= sigma, coupling * chi / np.sqrt(2.0 * r), 0.0)


def own_bare_hamiltonian(k, w, P, coupling, sigma, cap):
    """Sparse bare fiber Hamiltonian 1/2 |P - P_f|^2 + H_f + field on the
    occupation basis with at most `cap` photons (vacuum first).  The
    kinetic term is diagonal in occupation, so no headroom is needed.
    Returns (H, pf) with pf the (dim, 3) photon-momentum diagonal."""
    M = len(w)
    states = [()] + [s for q in range(1, cap + 1)
                     for s in itertools.combinations_with_replacement(range(M), q)]
    index = {s: i for i, s in enumerate(states)}
    r = np.linalg.norm(k, axis=1)
    g = own_form_factor(r, coupling, sigma) * np.sqrt(w)
    pf = np.zeros((len(states), 3))
    free = np.zeros(len(states))
    rows, cols, vals = [], [], []
    for i, s in enumerate(states):
        for m in s:
            pf[i] += k[m]
            free[i] += r[m]
        for m in set(s):
            lowered = list(s)
            lowered.remove(m)
            rows.append(index[tuple(lowered)])
            cols.append(i)
            vals.append(g[m] * math.sqrt(s.count(m)))
    dim = len(states)
    lower = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    kin = 0.5 * np.sum((np.asarray(P) - pf) ** 2, axis=1)
    return (lower + lower.T + sp.diags(kin + free)).tocsr(), pf


# ---------------------------------------------------------------------------
# file helpers


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def ledgers(out):
    return sorted(f for f in os.listdir(out) if f.startswith("ledger_"))


def _edit_csv(path, row, column, fn):
    rows = read_csv(path)
    rows[row][column] = repr(fn(float(rows[row][column])))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _ledger(res):
    return read_csv(os.path.join(res["out"], ledgers(res["out"])[-1]))


def _col(rows, name):
    return [float(r[name]) for r in rows]


# ---------------------------------------------------------------------------
# sweep ledger laws


def rows_complete(res):
    n = len(_ledger(res))
    want = res["work"].scales + 1
    return n == want, f"{n} ledger rows, want {want} (no early stop at dim_cap)"


def energies_monotone(res):
    e = _col(_ledger(res), "energy")
    worst = max((b - a for a, b in zip(e, e[1:])), default=0.0)
    return worst <= 2 * TOL, f"largest energy rise {worst:.3e} (budget {2 * TOL:.0e})"


def gap_floor(res):
    rows = _ledger(res)
    worst = min(min(float(r["gap"]), float(r["gap_w"])) / (float(r["sigma"]) / 3.0)
                for r in rows)
    return worst >= 1.0, f"smallest gap / (sigma/3) = {worst:.4g}"


def contour_gap_positive(res):
    gaps = _col(_ledger(res)[1:], "contour_gap")
    return min(gaps) > 0.0, f"smallest contour_gap {min(gaps):.4g}"


def _spread(res, name):
    vals = [v for v in _col(_ledger(res)[1:], name) if math.isfinite(v)]
    return min(vals), max(vals)


def c_energy_spread(res):
    lo, hi = _spread(res, "c_energy")
    return lo > 0.0 and hi <= 3.0 * lo, f"c_energy in [{lo:.4g}, {hi:.4g}]"


def f1_bound_spread(res):
    lo, hi = _spread(res, "f1_bound_c")
    return lo > 0.0 and hi < 2.0 * lo, f"f1_bound_c in [{lo:.4g}, {hi:.4g}]"


def dense_bare_scales(res):
    """Bare energy and gap at scales 1 and 2 against an independent dense
    construction."""
    rows = _ledger(res)
    work = res["work"]
    worst = 0.0
    for n in (1, 2):
        edges = [KAPPA * work.epsilon**j for j in range(n + 1)]
        k, w = own_grid(edges)
        H, _ = own_bare_hamiltonian(k, w, work.P, work.coupling, edges[-1], 2)
        vals = np.linalg.eigvalsh(H.toarray())
        row = rows[n]
        worst = max(worst, abs(vals[0] - float(row["energy"])),
                    abs(vals[1] - vals[0] - float(row["gap"])))
    return worst <= 1e-9, f"dense bare energy/gap deviation {worst:.3e}"


def manifest_hashes(res):
    with open(os.path.join(res["out"], "manifest.json")) as fh:
        entries = json.load(fh)["outputs"]
    bad = []
    for e in entries:
        if e.get("sha256"):
            with open(os.path.join(res["out"], e["name"]), "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != e["sha256"]:
                    bad.append(e["name"])
    return not bad, f"{len(entries)} manifest entries, mismatched: {bad}"


# ---------------------------------------------------------------------------
# resume


def resume_ledgers_equal(res):
    """Ledgers of the resumed run are byte-equal to those of the run that
    wrote the checkpoints."""
    names = ledgers(res["out"])
    if not names or names != ledgers(res["ref"]):
        return False, f"ledgers {names} vs {ledgers(res['ref'])}"
    differ = []
    for name in names:
        with open(os.path.join(res["out"], name), "rb") as a, \
                open(os.path.join(res["ref"], name), "rb") as b:
            if a.read() != b.read():
                differ.append(name)
    return not differ, f"{len(names)} ledgers, differing: {differ}"


def resume_no_eigensolve(res):
    from tracer import eigensolves_beyond_trivial
    n = eigensolves_beyond_trivial(res["spans"])
    return n == 0, f"{n} eigensolves beyond the dim-1 scale 0"


# ---------------------------------------------------------------------------
# pull-through


def table_sizes(res):
    want = {q: math.comb(res["work"].n_modes + q - 1, q) for q in (1, 2, 3)}
    got = {q: len(read_csv(os.path.join(res["out"], f"f{q}.csv"))) for q in (1, 2, 3)}
    return got == want, f"table sizes {got}, want C(M+q-1, q) = {want}"


def f1_cg(res):
    """f^1 pull-through values at seeded modes against a CG solve of the
    shifted bare operator (SPD since the dispersion deficit is below 1)."""
    work = res["work"]
    rows = read_csv(os.path.join(res["out"], "f1.csv"))
    k, w = own_grid([KAPPA, work.sigma])
    kdev = max(abs(float(r[c]) - k[i, j]) for i, r in enumerate(rows)
               for j, c in enumerate(("kx", "ky", "kz")))
    if len(rows) != len(w) or kdev > 1e-14:
        return False, f"mode layout differs from the independent grid ({kdev:.2e})"
    P = np.asarray(work.P)
    H, pf = own_bare_hamiltonian(k, w, P, work.coupling, work.sigma, work.cap)
    v0 = np.full(H.shape[0], 1e-3)
    v0[0] = 1.0
    vals, vecs = eigsh(H, k=1, which="SA", v0=v0, tol=1e-14)
    energy, psi = vals[0], vecs[:, 0] * np.sign(vecs[0, 0])
    rng = np.random.default_rng(work.seed)
    worst = 0.0
    radius = np.linalg.norm(k, axis=1)
    for m in sorted(rng.choice(len(w), size=min(CG_SAMPLE, len(w)), replace=False)):
        Pk = P - k[m]
        shift = 0.5 * np.sum((Pk - pf) ** 2, axis=1) - 0.5 * np.sum((P - pf) ** 2, axis=1)
        A = H + sp.diags(shift - energy + radius[m])
        x, _ = cg(A, psi, rtol=1e-14, atol=0.0, maxiter=20 * H.shape[0])
        ours = -float(own_form_factor(radius[m], work.coupling, work.sigma)) * x[0]
        theirs = float(rows[m]["f1_pullthrough"])
        worst = max(worst, abs(ours - theirs) / abs(theirs))
    return worst <= 1e-9, f"largest relative f1 deviation from CG {worst:.3e}"


def _exactness_instance(work):
    from nelsonlab.fock import build_basis
    from nelsonlab.grid import GridSpec, ModelParams, MomentumGrid
    rng = np.random.default_rng(5)
    u = rng.normal(size=(4, 3))
    k = u / np.linalg.norm(u, axis=1)[:, None] * rng.uniform(0.25, 0.9, size=(4, 1))
    grid = MomentumGrid(k, rng.uniform(0.04, 0.1, size=4), np.zeros(4, dtype=int),
                        [(0.2, 1.0)], 0.2, 1.0, GridSpec(1, 1, 1))
    params = ModelParams(coupling=0.3, sigma=0.2, P=tuple(work.P))
    return params, grid, build_basis(4, 10)


def exactness_routes(res):
    """Acceptance-05-style instance past the dense cutoff (4 modes, cap 10,
    dim 1001): extraction and pull-through agree for f^1 and f^2."""
    from nelsonlab.grid import MomentumGrid
    from nelsonlab.spectral import DENSE_CUTOFF
    from nelsonlab.wavefunctions import (BareGround, extract_f1, extract_fq,
                                         froehlich_f1, froehlich_fq)
    params, grid, basis = _exactness_instance(res["work"])
    bg = BareGround.solve(params, grid, basis, TOL)
    extract_bg = bg
    if res.get("corrupt_weight"):
        w_bad = grid.w.copy()
        w_bad[0] *= 1.01
        extract_bg = BareGround(params, MomentumGrid(grid.k, w_bad, grid.shell,
                                                     grid.shell_bounds, grid.sigma,
                                                     grid.kappa, grid.spec),
                                basis, bg.H, bg.energy, bg.psi)
    worst = float(np.max(np.abs(extract_f1(extract_bg) - froehlich_f1(bg, tol=TOL))))
    for modes, value in extract_fq(extract_bg, 2).items():
        worst = max(worst, abs(value - froehlich_fq(bg, modes, tol=TOL)))
    return worst <= 1e-9 and basis.dim > DENSE_CUTOFF, \
        f"route gap {worst:.3e} at dim {basis.dim}"


# ---------------------------------------------------------------------------
# traced runs


def _strip_wall_time(rel, data: bytes):
    """Drop what a traced run may change: the ledger's wall_time column and
    its copy in checkpoints, and those files' hashes in the manifest."""
    base = os.path.basename(rel)
    if base.startswith("ledger_"):
        rows = list(csv.reader(io.StringIO(data.decode())))
        col = rows[0].index("wall_time")
        return [r[:col] + r[col + 1:] for r in rows]
    if rel.startswith("checkpoints") and base.endswith(".json"):
        obj = json.loads(data)
        obj["row"].pop("wall_time")
        return obj
    if rel == "manifest.json":
        obj = json.loads(data)
        for e in obj["outputs"]:
            if os.path.basename(e["name"]).startswith("ledger_") or (
                    e["name"].startswith("checkpoints") and e["name"].endswith(".json")):
                e.pop("sha256")
                e.pop("bytes")
        return obj
    return data


def _tree(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            path = os.path.join(base, f)
            rel = os.path.relpath(path, root)
            if rel != "timings.json":
                with open(path, "rb") as fh:
                    out[rel] = _strip_wall_time(rel, fh.read())
    return out


def traced_outputs_equal(res):
    """A traced run writes what an untraced one writes, except timings.json
    and the ledger's wall_time."""
    a, b = _tree(res["out"]), _tree(res["ref"])
    differ = sorted(set(a) ^ set(b)) + sorted(n for n in set(a) & set(b) if a[n] != b[n])
    return not differ, f"{len(a)} files compared, differing: {differ[:5]}"


def counts_repeat(res):
    from tracer import EXACT_COUNTS
    first, second = res["counts"]
    differ = [n for n in EXACT_COUNTS if first[n] != second[n]]
    return not differ, f"{len(EXACT_COUNTS)} counts, differing: {differ}"


# ---------------------------------------------------------------------------
# negative controls


def _damage_first_listed(res):
    with open(os.path.join(res["out"], "manifest.json")) as fh:
        entry = next(e for e in json.load(fh)["outputs"] if e.get("sha256"))
    with open(os.path.join(res["out"], entry["name"]), "a") as fh:
        fh.write(" ")


def _drop_last_line(path):
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])


def _ledger_path(res):
    return os.path.join(res["out"], ledgers(res["out"])[-1])


def _edit_ledger(row, column, fn):
    return lambda res: _edit_csv(_ledger_path(res), row, column, fn)


def _scale_f1_pull(res):
    path = os.path.join(res["out"], "f1.csv")
    for m in range(len(read_csv(path))):
        _edit_csv(path, m, "f1_pullthrough", lambda v: v * (1.0 + 1e-7))


def _add_eigensolve(res):
    res["spans"] = res["spans"] + [{"name": "spectral.ground_state", "parent": None,
                                    "attrs": {"dim": 703, "eigsh_calls": 0}}]


def _bump_count(res):
    res["counts"][1] = dict(res["counts"][1])
    res["counts"][1]["spectral.ground_state.matvecs"] += 1


def _damage_nonvolatile(res):
    tree = _tree(res["out"])
    name = next(n for n in sorted(tree) if isinstance(tree[n], bytes))
    with open(os.path.join(res["out"], name), "a") as fh:
        fh.write(" ")


CORRUPT = {
    rows_complete: lambda res: _drop_last_line(_ledger_path(res)),
    energies_monotone: lambda res: _edit_csv(
        _ledger_path(res), 2, "energy",
        lambda v: float(_ledger(res)[1]["energy"]) + 1e-6),
    gap_floor: _edit_ledger(-1, "gap_w", lambda v: 0.0),
    contour_gap_positive: _edit_ledger(1, "contour_gap", lambda v: -abs(v)),
    c_energy_spread: _edit_ledger(1, "c_energy", lambda v: 10.0 * v),
    f1_bound_spread: _edit_ledger(1, "f1_bound_c", lambda v: 10.0 * v),
    dense_bare_scales: _edit_ledger(1, "energy", lambda v: v + 1e-8),
    manifest_hashes: _damage_first_listed,
    resume_ledgers_equal: _edit_ledger(1, "energy", lambda v: v + 1e-12),
    resume_no_eigensolve: _add_eigensolve,
    table_sizes: lambda res: _drop_last_line(os.path.join(res["out"], "f2.csv")),
    f1_cg: _scale_f1_pull,
    exactness_routes: lambda res: res.update(corrupt_weight=True),
    traced_outputs_equal: _damage_nonvolatile,
    counts_repeat: _bump_count,
}


def corrupt(check, res):
    """Damage `res` (a private copy) so that `check` must fail."""
    CORRUPT[check](res)
