"""Experiment runner: config resolution, subcommands, persistence, reports.

Configuration comes from an INI file plus command-line flags with
precedence flags > file > defaults; the environment variable
NELSON_LAB_OUT overrides the output directory when no --out flag is
given.  Every command writes its outputs plus a run manifest
(manifest.json) listing each file with a content hash, so a directory can
be audited against the manifest.  Per-operation timings go to a separate
timings.json, the single file excluded from the byte-identity contract —
everything else a rerun writes is byte-identical.

Heavy imports happen inside the command functions so that `main` can set
the BLAS thread count (one unless --jobs asks for more) before numpy is
loaded.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

__all__ = ["RunConfig", "ConfigError", "load_config", "main"]


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


@dataclass
class RunConfig:
    """Resolved settings for one command invocation."""

    # model
    coupling: float = 0.1
    alpha_bar: float = 0.0
    kappa: float = 1.0
    epsilon0: float = 0.2
    sigma: float = 0.0625
    p: tuple = (1.0 / 6.0, 0.0, 0.0)
    # grid resolution
    shells_per_decade: int = 4
    n_polar: int = 3
    n_azimuthal: int = 3
    # basis caps
    photon_cap: int = 2
    dim_cap: int = 200_000
    # solver
    tol: float = 1e-10
    # sweep: `scales` counts annulus refinements, so the ledger has
    # scales + 1 rows (the empty-annulus seed plus one row per refinement)
    epsilon: float = 0.5
    scales: int = 4
    lambdas: tuple = ()
    max_probes: int = 10
    # run
    out: str = "nelson_out"
    seed: int = 7
    q_max: int = 2
    jobs: int = 1

    def sweep_couplings(self):
        return tuple(self.lambdas) if self.lambdas else (self.coupling,)


def _parse_vec3(text: str):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise ValueError(f"expected 3 components, got {len(parts)}")
    return tuple(float(p) for p in parts)


def _parse_floats(text: str):
    return tuple(float(p) for p in text.replace(",", " ").split() if p)


# section -> keys; each key is the RunConfig field it sets, read by the type
# of the field's default unless it has a parser of its own
_INI_SCHEMA = {
    "model": ("coupling", "alpha_bar", "kappa", "epsilon0", "sigma", "p"),
    "grid": ("shells_per_decade", "n_polar", "n_azimuthal"),
    "basis": ("photon_cap", "dim_cap"),
    "solver": ("tol",),
    "sweep": ("epsilon", "scales", "lambdas", "max_probes"),
    "run": ("out", "seed", "q_max", "jobs"),
}
_INI_PARSERS = {"p": _parse_vec3, "lambdas": _parse_floats}


def _read_ini(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    overrides = {}
    for section in parser.sections():
        if section not in _INI_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _INI_SCHEMA[section]:
                raise ConfigError(f"unknown config key '{key}' in [{section}]")
            conv = _INI_PARSERS.get(key, type(getattr(RunConfig, key)))
            try:
                overrides[key] = conv(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for '{key}' in [{section}]: {raw!r} ({exc})"
                ) from exc
    return overrides


def validate_config(cfg: RunConfig) -> None:
    def bad(key, why):
        raise ConfigError(f"invalid config value for '{key}': {why}")

    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if any(isinstance(x, float) and not math.isfinite(x)
               for x in (value if isinstance(value, tuple) else (value,))):
            bad(f.name, "must be finite")
    if cfg.coupling < 0.0:
        bad("coupling", "must be >= 0")
    if not 0.0 <= cfg.alpha_bar <= 0.5:
        bad("alpha_bar", "must lie in [0, 1/2]")
    if cfg.kappa <= 0.0:
        bad("kappa", "must be positive")
    if not 0.0 < cfg.epsilon0 < 1.0:
        bad("epsilon0", "must lie in (0, 1)")
    if not 0.0 < cfg.sigma <= cfg.kappa:
        bad("sigma", "must lie in (0, kappa]")
    if sum(x * x for x in cfg.p) >= 1.0:
        bad("p", "|P| must be < 1 for coherent dressing")
    for key in ("shells_per_decade", "n_polar", "n_azimuthal", "photon_cap"):
        if getattr(cfg, key) < 1:
            bad(key, "must be >= 1")
    if cfg.dim_cap < 1:
        bad("dim_cap", "must be >= 1")
    if cfg.tol <= 0.0:
        bad("tol", "must be positive")
    if not 0.0 < cfg.epsilon < 1.0:
        bad("epsilon", "must lie in (0, 1)")
    if cfg.scales < 1:
        bad("scales", "must be >= 1")
    if cfg.max_probes < 1:
        bad("max_probes", "must be >= 1")
    if any(l < 0.0 for l in cfg.lambdas):
        bad("lambdas", "couplings must be >= 0")
    tags = {}
    for lam in cfg.lambdas:
        tag = _lambda_tag(lam)
        if tag in tags:
            bad("lambdas", f"couplings {tags[tag]!r} and {lam!r} share the "
                           f"output tag {tag}")
        tags[tag] = lam
    if cfg.q_max < 1:
        bad("q_max", "must be >= 1")
    if cfg.seed < 0:
        bad("seed", "must be >= 0")
    if cfg.jobs < 1:
        bad("jobs", "must be >= 1")


def load_config(args: argparse.Namespace) -> RunConfig:
    """defaults < INI file < environment (out dir only) < flags."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in _read_ini(args.config).items():
            setattr(cfg, key, value)
    env_out = os.environ.get("NELSON_LAB_OUT")
    if env_out:
        cfg.out = env_out
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# run manifest


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonify(obj):
    """Plain-python view of nested results (numpy scalars/arrays included)."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _jsonify(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


class RunContext:
    """Collects output files, diagnostics, and timings for one command.

    finish() writes timings.json (volatile: wall-clock numbers, excluded
    from the byte-identity contract) and manifest.json (everything else:
    config echo, code version, hashes, warnings, and the file index).
    Existing manifest entries for files this run did not touch are carried
    over, so sequential commands into one directory keep the index
    complete; a file named in `unindexed` is dropped from it.
    """

    def __init__(self, command: str, cfg: RunConfig):
        self.command = command
        self.cfg = cfg
        self.out = Path(cfg.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, dict] = {}
        self.info: dict = {}
        self.warnings: list[str] = []
        self.unindexed: set[str] = set()
        self.timings: dict[str, float] = {}

    @contextmanager
    def timed(self, name: str):
        t0 = time.monotonic()
        yield
        self.timings[name] = self.timings.get(name, 0.0) + time.monotonic() - t0

    def add_file(self, path: Path):
        path = Path(path)
        rel = str(path.relative_to(self.out))
        self.files[rel] = {"sha256": _sha256(path),
                           "bytes": path.stat().st_size}

    def write_text(self, name: str, text: str) -> Path:
        path = self.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        self.add_file(path)
        return path

    def write_json(self, name: str, obj) -> Path:
        return self.write_text(name, json.dumps(_jsonify(obj), indent=2,
                                                sort_keys=True) + "\n")

    def finish(self) -> Path:
        import resource

        from . import __version__
        # ru_maxrss is in kilobytes on Linux
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        (self.out / "timings.json").write_text(
            json.dumps({"command": self.command, "peak_rss_mb": peak_rss_mb,
                        "seconds": self.timings}, indent=2, sort_keys=True) + "\n")
        outputs = {}
        old = self.out / "manifest.json"
        if old.exists():
            try:
                for entry in json.loads(old.read_text()).get("outputs", []):
                    if (self.out / entry["name"]).exists() \
                            and entry["name"] not in self.unindexed:
                        outputs[entry["name"]] = entry
            except (json.JSONDecodeError, KeyError, TypeError):
                outputs = {}
                self.warnings.append(
                    "previous manifest.json was unreadable; its entries "
                    "were dropped from the index")
        for name, rec in self.files.items():
            outputs[name] = {"name": name, **rec}
        outputs["timings.json"] = {"name": "timings.json", "sha256": None,
                                   "volatile": True}
        outputs["manifest.json"] = {"name": "manifest.json", "sha256": None}
        manifest = {
            "command": self.command,
            "config": asdict(self.cfg),
            "code_version": __version__,
            "environment": _environment(),
            "info": self.info,
            "warnings": self.warnings,
            "outputs": sorted(outputs.values(), key=lambda e: e["name"]),
            "timings_file": "timings.json",
        }
        path = self.out / "manifest.json"
        path.write_text(json.dumps(_jsonify(manifest), indent=2,
                                   sort_keys=True) + "\n")
        return path


# the variables that set the BLAS thread count; `main` sets each to `jobs`
_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Library versions, BLAS builds and the thread caps in effect: what else
    besides the config decides the bytes a run writes."""
    import numpy as np
    import scipy
    blas = {}
    for name, lib in (("numpy", np), ("scipy", scipy)):
        info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[name] = {"name": info.get("name"), "version": info.get("version")}
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {var: os.environ.get(var) for var in _THREAD_VARIABLES}}


def _model_params(cfg: RunConfig, coupling: float | None = None):
    from .grid import ModelParams
    return ModelParams(coupling=cfg.coupling if coupling is None else coupling,
                       alpha_bar=cfg.alpha_bar, kappa=cfg.kappa,
                       epsilon0=cfg.epsilon0, sigma=cfg.sigma, P=cfg.p)


def _grid_spec(cfg: RunConfig):
    from .grid import GridSpec
    return GridSpec(cfg.shells_per_decade, cfg.n_polar, cfg.n_azimuthal)


def _model_setup(cfg: RunConfig, ctx: RunContext):
    """Parameters, grid and Fock basis of a single-cutoff command, with their
    hashes and sizes recorded in the manifest."""
    from .fock import build_basis
    from .grid import build_grid
    params = _model_params(cfg)
    grid = build_grid(params, _grid_spec(cfg))
    basis = build_basis(grid.n_modes, cfg.photon_cap, dim_cap=cfg.dim_cap)
    ctx.info["grid_hash"] = grid.content_hash()
    ctx.info["basis_hash"] = basis.content_hash()
    ctx.info["n_modes"] = grid.n_modes
    ctx.info["dim"] = basis.dim
    return params, grid, basis


def _solve_state(cfg: RunConfig, ctx: RunContext):
    from .dressing import dressed_ground_state
    params, grid, basis = _model_setup(cfg, ctx)
    with ctx.timed("ground_state"):
        state = dressed_ground_state(params, grid, basis, cfg.tol)
    return state


# ---------------------------------------------------------------------------
# commands


def cmd_ground_state(cfg: RunConfig) -> int:
    import numpy as np
    from .fock import StateVector
    ctx = RunContext("ground-state", cfg)
    state = _solve_state(cfg, ctx)
    record = {
        **state.record(),
        "diagnostics": state.diagnostics,
        "free_energy_p2_over_2": 0.5 * float(np.dot(cfg.p, cfg.p)),
    }
    ctx.info["energy"] = state.energy
    ctx.write_json("ground_state.json", record)
    for name, vec in (("psi.csv", state.psi), ("phi.csv", state.phi)):
        path = ctx.out / name
        StateVector(vec, state.basis).to_csv(path)
        ctx.add_file(path)
    ctx.finish()
    print(f"E = {state.energy:.12g}  gap_w = {state.gap_w:.6g}  "
          f"dim = {state.basis.dim}  -> {ctx.out}")
    return 0


def cmd_derivatives(cfg: RunConfig) -> int:
    from .derivatives import derivative_record
    ctx = RunContext("derivatives", cfg)
    state = _solve_state(cfg, ctx)
    with ctx.timed("derivatives"):
        record = derivative_record(state)
    record.update(grad_e=[float(x) for x in state.grad_e], tol=cfg.tol)
    ctx.write_json("derivatives.json", record)
    ctx.finish()
    print(f"radial hessian = {record['radial_hessian']:.9g}  "
          f"d3 = {record['d3_radial']:.6g}  -> {ctx.out}")
    return 0


def cmd_wavefunctions(cfg: RunConfig) -> int:
    import numpy as np
    from .wavefunctions import (BareGround, bound_constant_f1, extract_f1,
                                extract_fq, froehlich_values)
    ctx = RunContext("wavefunctions", cfg)
    params, grid, basis = _model_setup(cfg, ctx)
    with ctx.timed("ground_state"):
        bg = BareGround.solve(params, grid, basis, cfg.tol)
    q_top = min(cfg.q_max, cfg.photon_cap)
    if q_top < cfg.q_max:
        ctx.warnings.append(
            f"q_max {cfg.q_max} clamped to photon cap {cfg.photon_cap}")
    n = bg.grid.n_modes
    with ctx.timed("extract"):
        f1 = extract_f1(bg)
        c_bound, ratios = bound_constant_f1(bg, f1)
        tables = {q: extract_fq(bg, q) for q in range(2, q_top + 1)}
    # each table follows the sector rows, so it is sorted, and its first
    # max_probes entries are the probed tuples
    probes = [T for table in tables.values()
              for T in itertools.islice(table, cfg.max_probes)]
    with ctx.timed("pullthrough"):
        # every f^1 mode and every probed tuple in one walk, so that each
        # multiset is solved once
        pull = froehlich_values(bg, [(m,) for m in range(n)] + probes, cfg.tol)
    f1_pull = np.array(pull[:n])
    lines = ["mode,kx,ky,kz,radius,f1_extract,f1_pullthrough,envelope_ratio"]
    for m in range(n):
        cells = [str(m)] + [repr(float(x)) for x in
                            (*bg.grid.k[m], bg.grid.r[m], f1[m], f1_pull[m],
                             ratios[m])]
        lines.append(",".join(cells))
    ctx.write_text("f1.csv", "\n".join(lines) + "\n")
    summary = {"n_modes": n, "bound_constant_f1": c_bound,
               "max_route_gap_f1": float(np.max(np.abs(f1 - f1_pull),
                                                initial=0.0)),
               "tables": {"1": n}}
    at = n
    for q, table in tables.items():
        probed = pull[at:at + min(cfg.max_probes, len(table))]
        at += len(probed)
        items = iter(table.items())
        rows = ["modes,value,pullthrough"]
        worst = 0.0
        # modes;...,value, with the modes' str and the value's repr; one %
        # format per row is faster than joining the modes
        row = ";".join(["%d"] * q) + ",%r,"
        # zip stops at the last probe without drawing the next table entry
        for value, (modes, val) in zip(probed, items):
            worst = max(worst, abs(value - val))
            rows.append(row % (*modes, val) + repr(value))
        rows.extend(row % (*modes, val) for modes, val in items)
        ctx.write_text(f"f{q}.csv", "\n".join(rows) + "\n")
        summary["tables"][str(q)] = len(table)
        summary[f"max_route_gap_f{q}_probed"] = worst
    ctx.write_json("wavefunctions.json", summary)
    ctx.finish()
    print(f"f^1 on {bg.grid.n_modes} modes, bound constant {c_bound:.4g}  "
          f"-> {ctx.out}")
    return 0


def _lambda_tag(coupling: float) -> str:
    return "lam" + f"{coupling:g}".replace(".", "p").replace("-", "m")


def cmd_sweep(cfg: RunConfig) -> int:
    from .multiscale import CHECKPOINT_NAME, SweepConfig, run_sweep
    from .svgplot import LogLogSeries, loglog_svg
    ctx = RunContext("sweep", cfg)
    all_fits = {}
    for lam in cfg.sweep_couplings():
        tag = _lambda_tag(lam)
        sweep_cfg = SweepConfig(
            params=_model_params(cfg, coupling=lam),
            spec=_grid_spec(cfg), epsilon=cfg.epsilon,
            n_scales=cfg.scales + 1, photon_cap=cfg.photon_cap, tol=cfg.tol,
            max_probes=cfg.max_probes, dim_cap=cfg.dim_cap)
        ckpt = ctx.out / "checkpoints" / tag
        ckpt.mkdir(parents=True, exist_ok=True)

        def report(row):
            print(f"[{tag}] n={row.n} sigma={row.sigma:.6g} "
                  f"E={row.energy:+.9f} gap_w={row.gap_w:.4g}", flush=True)
        with ctx.timed(f"sweep_{tag}"):
            result = run_sweep(sweep_cfg, checkpoint_dir=ckpt, progress=report)
        path = ctx.out / f"ledger_{tag}.csv"
        result.to_csv(path)
        ctx.add_file(path)
        # only the current checkpoint format enters the manifest: files beside
        # it, such as older code's _psi.csv vectors, are named in one warning,
        # kept out of the index and left in place
        stale = []
        for ck in sorted(ckpt.rglob("*")):
            if ck.is_file():
                if ck.parent == ckpt and CHECKPOINT_NAME.fullmatch(ck.name):
                    ctx.add_file(ck)
                else:
                    stale.append(str(ck.relative_to(ctx.out)))
        if stale:
            ctx.unindexed.update(stale)
            ctx.warnings.append(f"sweep {tag}: not indexed, not a current "
                                f"checkpoint file: {', '.join(stale)}")
        truncated = len(result.rows) < sweep_cfg.n_scales
        if truncated:
            ctx.warnings.append(
                f"sweep {tag} stopped at dim_cap {sweep_cfg.dim_cap}: "
                f"{len(result.rows)} of {sweep_cfg.n_scales} ledger rows")
        all_fits[tag] = {"coupling": lam, "rows": len(result.rows),
                         "config_hash": sweep_cfg.content_hash(),
                         "truncated": truncated, **result.fits}
        sig = result.column("sigma")
        plots = {
            f"sweep_{tag}_cauchy.svg": (
                "ground-state Cauchy differences", "||difference||",
                [LogLogSeries("bare psi", sig, result.column("psi_cauchy"),
                              *result.fits["psi_cauchy"]),
                 LogLogSeries("dressed phi", sig, result.column("phi_cauchy"),
                              *result.fits["phi_cauchy"])]),
            f"sweep_{tag}_chains.svg": (
                "resolvent-chain norms", "norm",
                [LogLogSeries("||R0 Gamma phi||", sig,
                              result.column("rgamma_norm"),
                              -all_fits[tag]["delta_hat"][0],
                              all_fits[tag]["delta_hat"][1]),
                 LogLogSeries("contour sup", sig,
                              [max(r.contour_sups) for r in result.rows],
                              *result.fits["contour_sup"])]),
            f"sweep_{tag}_gaps.svg": (
                "dressed spectral gap", "gap",
                [LogLogSeries("gap_w", sig, result.column("gap_w")),
                 LogLogSeries("sigma/3", sig, sig / 3.0, 1.0)]),
        }
        for name, (title, ylabel, series) in plots.items():
            ctx.write_text(name, loglog_svg(series, f"{title} ({tag})",
                                            "sigma", ylabel))
    ctx.write_json("sweep_fits.json", all_fits)
    ctx.finish()
    print(f"{len(all_fits)} sweep(s) -> {ctx.out}")
    return 0


def _finite(x) -> bool:
    """False for the `null` that `_jsonify` writes in place of nan/inf."""
    return x is not None and math.isfinite(x)


def cmd_report(cfg: RunConfig) -> int:
    ctx = RunContext("report", cfg)
    fits_path = ctx.out / "sweep_fits.json"
    if not fits_path.exists():
        print(f"no sweep_fits.json under {ctx.out}; run `sweep` first",
              file=sys.stderr)
        return 2
    all_fits = json.loads(fits_path.read_text())
    lines = ["# nelson-lab sweep report", ""]
    for tag in sorted(all_fits):
        fits = all_fits[tag]
        ledger = ctx.out / f"ledger_{tag}.csv"
        lines += [f"## {tag} (coupling = {fits['coupling']:g})", ""]
        if ledger.exists():
            rows = ledger.read_text().strip().splitlines()
            header = rows[0].split(",")
            idx = {name: i for i, name in enumerate(header)}
            last = rows[-1].split(",")
            lines += [
                f"- scales: {fits['rows']} ledger rows, final sigma = "
                f"{float(last[idx['sigma']]):g}",
                f"- final energy: {float(last[idx['energy']]):.9f}",
                f"- final dressed gap: {float(last[idx['gap_w']]):.6f} "
                f"(floor sigma/3 = {float(last[idx['sigma']]) / 3:.6f})",
            ]
        def pair(name, label):
            value = fits.get(name)
            if value and isinstance(value, list) and _finite(value[0]):
                err = f" +- {value[1]:.3f}" if _finite(value[1]) else ""
                lines.append(f"- {label}: {value[0]:+.3f}{err}")
        pair("psi_cauchy", "bare Cauchy-difference slope")
        pair("phi_cauchy", "dressed Cauchy-difference slope")
        pair("contour_sup", "contour sup-norm slope")
        dh = fits.get("delta_hat")
        if dh and _finite(dh[0]):
            lines.append(f"- delta-hat (chain-norm growth): {dh[0]:.3f}"
                         + (f" +- {dh[1]:.3f}" if _finite(dh[1]) else ""))
        ce = fits.get("c_energy_spread")
        if ce and _finite(ce[0]):
            lines.append(f"- energy-drop constant range: [{ce[0]:.3f}, {ce[1]:.3f}]")
        cf = fits.get("f1_bound_spread")
        if cf and _finite(cf[0]):
            lines.append(f"- f1 envelope constant range: [{cf[0]:.3f}, {cf[1]:.3f}]")
        dc = fits.get("drift_constant")
        if _finite(dc):
            lines.append(f"- gradient drift constant: {dc:.3f}")
        lines.append("")
    lines += ["## files", ""]
    manifest = ctx.out / "manifest.json"
    if manifest.exists():
        for entry in json.loads(manifest.read_text()).get("outputs", []):
            size = entry.get("bytes")
            lines.append(f"- `{entry['name']}`"
                         + (f" ({size} bytes)" if size is not None else ""))
    lines.append("")
    ctx.write_text("report.md", "\n".join(lines))
    ctx.finish()
    print(f"report.md -> {ctx.out}")
    return 0


# ---------------------------------------------------------------------------
# verify suite


def _verify_checks(cfg: RunConfig, corrupt_weight: bool, timed):
    """Yield (name, value, budget, passed, detail) for each invariant."""
    import numpy as np
    from .dressing import dressed_ground_state, hellmann_feynman_gradient
    from .fiberop import (FiberOperator, assemble, canonical_distance,
                          displace, nelson_hamiltonian,
                          transformed_hamiltonian_routes)
    from .fock import apply_displacement, build_basis
    from .grid import GridSpec, MomentumGrid, build_grid
    from .spectral import ground_state
    from .wavefunctions import (BareGround, extract_f1, extract_fq,
                                froehlich_values, permutation_identity_gap)

    rng = np.random.default_rng(cfg.seed)
    results = []

    def record(name, value, budget, detail=""):
        results.append((name, float(value), float(budget),
                        bool(value <= budget), detail))

    with timed("number-operator"):
        basis = build_basis(3, 3)
        number = FiberOperator(np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3)),
                               np.ones(3), np.zeros(3), 0.0)
        N = assemble(number, basis).toarray()
        dev = float(np.max(np.abs(N - np.diag(basis.photon_count))))
        record("number-operator", dev, 1e-13,
               "assembled number operator vs occupation totals")

    params = _model_params(cfg).with_sigma(0.2 * cfg.kappa)
    grid = build_grid(params, GridSpec(2, 2, 2))

    with timed("displacement-group"):
        op = nelson_hamiltonian(params, grid)
        a = rng.normal(scale=0.1, size=grid.n_modes)
        b = rng.normal(scale=0.1, size=grid.n_modes)
        dev = canonical_distance(displace(displace(op, a), b),
                                 displace(op, a + b))
        basis = build_basis(grid.n_modes, 2)
        v = rng.normal(size=basis.dim)
        v /= np.linalg.norm(v)
        drift = abs(np.linalg.norm(
            apply_displacement(basis, np.full(grid.n_modes, 0.05), v)) - 1.0)
        record("displacement-group", max(dev, drift), 1e-12,
               "coefficient composition and norm preservation")

    with timed("van-hove"):
        freq = np.array([0.5, 1.0, 1.7])
        amp = np.array([0.08, 0.05, 0.03])
        g = amp * freq
        vh = FiberOperator(np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3)),
                           freq, g, 0.0)
        vh_basis = build_basis(3, 6)
        rec = ground_state(assemble(vh, vh_basis), cfg.tol)
        exact = -float(np.sum(g * g / freq))
        e_dev = abs(rec.energy - exact) / abs(exact)
        vac = np.zeros(vh_basis.dim)
        vac[0] = 1.0
        coherent = apply_displacement(vh_basis, amp, vac)
        olap_dev = 1.0 - abs(float(rec.vector @ coherent))
        record("van-hove", max(e_dev, olap_dev), 1e-6,
               "fixed-mode energy -sum g^2/w and coherent ground state")

    with timed("dual-route-weyl"):
        gradE = rng.normal(scale=0.05, size=3)
        route_displaced, _ = transformed_hamiltonian_routes(params, grid, gradE)
        grid_b = grid
        if corrupt_weight:
            w_bad = grid.w.copy()
            w_bad[0] *= 1.01
            grid_b = MomentumGrid(grid.k, w_bad, grid.shell, grid.shell_bounds,
                                  grid.sigma, grid.kappa, grid.spec)
        _, route_closed = transformed_hamiltonian_routes(params, grid_b, gradE)
        dev = canonical_distance(route_displaced, route_closed)
        record("dual-route-weyl", dev, 1e-13,
               "displaced-route vs closed-route canonical coefficients "
               f"differ by {dev:.3e}")

    with timed("gradient-fd"):
        basis = build_basis(grid.n_modes, 2)
        st = dressed_ground_state(params, grid, basis, cfg.tol)
        step = 1e-4
        worst = 0.0
        for j in range(3):
            shift = np.zeros(3)
            shift[j] = step
            ep = ground_state(assemble(nelson_hamiltonian(
                params.with_P(params.P_vec + shift), grid), basis), cfg.tol).energy
            em = ground_state(assemble(nelson_hamiltonian(
                params.with_P(params.P_vec - shift), grid), basis), cfg.tol).energy
            worst = max(worst, abs((ep - em) / (2 * step) - st.grad_e[j]))
        record("gradient-fd", worst, 1e-6,
               "Hellmann-Feynman gradient vs central differences")

    with timed("permutation-identity"):
        worst = 0.0
        for _ in range(20):
            q = int(rng.integers(1, 7))
            worst = max(worst, permutation_identity_gap(
                rng.uniform(0.2, 2.5, size=q)))
        record("permutation-identity", worst, 1e-12,
               "tail-sum recursion vs explicit permutation sum")

    with timed("wavefunction-routes"):
        toy = MomentumGrid(np.array([[0.3, 0.1, 0.0], [-0.2, 0.4, 0.1]]),
                           np.array([0.05, 0.08]), np.array([0, 0]),
                           [(0.25, 1.0)], 0.25, 1.0, GridSpec(1, 1, 1))
        toy_params = _model_params(cfg, coupling=0.35).with_sigma(0.25)
        bg = BareGround.solve(toy_params, toy, build_basis(2, 14), cfg.tol)
        table = extract_fq(bg, 2)
        tuples = [(m,) for m in range(toy.n_modes)] + list(table)
        pull = froehlich_values(bg, tuples, cfg.tol)
        worst = max(abs(a - b) for a, b in zip([*extract_f1(bg), *table.values()], pull))
        record("wavefunction-routes", worst, 1e-9,
               "eigenvector extraction vs pull-through resolvent chains")

    with timed("free-field-exactness"):
        free = _model_params(cfg, coupling=0.0)
        fgrid = build_grid(free, GridSpec(2, 2, 2))
        fbasis = build_basis(fgrid.n_modes, 2)
        fstate = dressed_ground_state(free, fgrid, fbasis, cfg.tol)
        p2 = 0.5 * float(free.P_vec @ free.P_vec)
        hf = hellmann_feynman_gradient(free, fgrid, fbasis, fstate.psi)
        dev = max(abs(fstate.energy - p2),
                  float(np.max(np.abs(hf - free.P_vec))))
        record("free-field-exactness", dev, 1e-12,
               "coupling 0 reduces to the free kinetic fiber")

    return results


def cmd_verify(cfg: RunConfig, corrupt_weight: bool = False) -> int:
    ctx = RunContext("verify", cfg)
    t0 = time.monotonic()
    checks = _verify_checks(cfg, corrupt_weight, ctx.timed)
    elapsed = time.monotonic() - t0
    all_passed = all(c[3] for c in checks)
    width = max(len(c[0]) for c in checks)
    for name, value, budget, passed, detail in checks:
        label = "PASS" if passed else "FAIL"
        line = f"[{label}] {name:<{width}}  value {value:9.3e}  budget {budget:.1e}"
        if not passed:
            line += f"  <- {detail}"
        print(line)
    print(f"{'all checks passed' if all_passed else 'FAILURES above'} "
          f"({elapsed:.1f}s)")
    ctx.info["all_passed"] = all_passed
    ctx.write_json("verify_report.json", {
        "all_passed": all_passed,
        "corrupt_weight": corrupt_weight,
        "checks": [{"name": n, "value": v, "budget": b, "passed": p,
                    "detail": d} for n, v, b, p, d in checks],
    })
    ctx.finish()
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="INI config file (sections model/grid/basis/"
                             "solver/sweep/run)")
    common.add_argument("--lambda", dest="coupling", type=float,
                        metavar="L", help="coupling strength")
    common.add_argument("--alpha-bar", dest="alpha_bar", type=float,
                        metavar="A", help="infrared regularity exponent")
    common.add_argument("--sigma", type=float, help="infrared cutoff")
    common.add_argument("--epsilon", type=float,
                        help="scale ratio of the sweep")
    common.add_argument("--scales", type=int,
                        help="number of annulus refinements in a sweep")
    common.add_argument("--q-max", dest="q_max", type=int,
                        help="highest photon sector for wavefunction tables")
    common.add_argument("--photon-cap", dest="photon_cap", type=int,
                        help="total photon number cap of the Fock basis")
    common.add_argument("--P", dest="p", type=_parse_vec3, metavar="X,Y,Z",
                        help="total momentum")
    common.add_argument("--out", help="output directory "
                        "(overrides NELSON_LAB_OUT)")
    common.add_argument("--seed", type=int, help="seed for randomized checks")
    common.add_argument("--jobs", type=int,
                        help="BLAS worker threads (default 1; more may "
                             "change the last digits of the outputs)")

    parser = argparse.ArgumentParser(
        prog="nelson-lab",
        description="Numerical laboratory for infrared-cutoff Nelson-type "
                    "fiber Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ground-state", parents=[common],
                   help="solve one dressed scale and persist the state")
    sub.add_parser("derivatives", parents=[common],
                   help="energy and ground-state momentum derivatives")
    sub.add_parser("wavefunctions", parents=[common],
                   help="photon wavefunction tables f^q")
    sub.add_parser("sweep", parents=[common],
                   help="multiscale infrared sweep with ledger and plots")
    verify = sub.add_parser("verify", parents=[common],
                            help="run the invariant suite")
    verify.add_argument("--corrupt-weight", action="store_true",
                        help="inject a corrupted quadrature weight "
                             "(negative test: dual-route check must fail)")
    sub.add_parser("report", parents=[common],
                   help="summarize sweep outputs into report.md")
    return parser


_COMMANDS = {
    "ground-state": cmd_ground_state,
    "derivatives": cmd_derivatives,
    "wavefunctions": cmd_wavefunctions,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # before any command imports numpy; a caller that loaded it already
    # keeps the thread count it started with
    for var in _THREAD_VARIABLES:
        os.environ[var] = str(cfg.jobs)
    try:
        if args.command == "verify":
            return cmd_verify(cfg, corrupt_weight=args.corrupt_weight)
        return _COMMANDS[args.command](cfg)
    except (ArithmeticError, ValueError, OSError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
