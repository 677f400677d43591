"""Multiscale infrared iteration: cutoffs sigma_n = kappa * epsilon^n.

Each scale refines the momentum annulus (parent modes kept verbatim, so
embeddings are isometric and ground energies decrease monotonically), runs
the full dressing pipeline, and measures every quantity the scale-by-scale
analysis tracks:

* energy drops per scale and their lambda^2 * (annulus width) ledger constant;
* spectral gaps of the dressed Hamiltonians against sigma_n / 3;
* the projection of the previous dressed ground state under the intermediate
  Hamiltonian (previous dressing, new cutoff) via its ground overlap;
* Cauchy differences of the dressed wavefunction across scales, with the
  inter-scale Weyl difference applied exactly (real displacements commute,
  so W_{n+1} W_n* is a single displacement by h_{n+1} - h_n);
* resolvent sup norms on contours |z - E| = sigma_n / 3 around the ground
  energy of the intermediate Hamiltonian, in three directions Gamma_i phi;
* one-photon wavefunction envelope constants, dispersion deficits, radial
  hessians, third derivatives, and resolvent-chain norms per scale.

Scale 0 has an empty annulus: closed forms E = |P|^2/2, psi = vacuum, and
continuum gap kappa (1 - |P|) + kappa^2 / 2 seed the iteration; nothing is
assembled or solved for it.

A resumed sweep reads instead of recomputing: a checkpointed scale is
checked against its config, grid and basis hashes and its vector length
C(M + Q, Q), all known from the mode count M and the photon cap Q, so no
basis is enumerated for it.  A basis is built only for a scale that is
computed, and for its predecessor when that one was loaded or is scale 0,
since the Cauchy differences embed the predecessor's vectors.

Log-log exponent fits over sigma are ordinary least squares with a slope
standard error, so scaling claims carry uncertainties.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .derivatives import derivative_record
from .dressing import DressedScaleState, dispersion_probe, dressed_ground_state
from .fiberop import assemble, assemble_vector_component, gamma_operator, \
    transformed_hamiltonian, weyl_coefficients
from .fock import FockBasis, apply_displacement, basis_dimension, basis_hash, \
    build_basis, embed
from .grid import GridSpec, ModelParams, MomentumGrid, build_grid, refine_annulus
from .spectral import contour_sup_norm, ground_state
from .wavefunctions import BareGround, bound_constant_f1, extract_f1

__all__ = [
    "SweepConfig",
    "ScaleRow",
    "SweepResult",
    "run_sweep",
    "fit_exponent",
    "CHECKPOINT_NAME",
]

# Version of the numerics behind every checkpointed number.  It is part of
# SweepConfig.content_hash, so bumping it makes old checkpoints recompute
# instead of resuming; bump it whenever a change moves computed values, even
# in the last digits.
NUMERICS_VERSION = 14

# dtype of the checkpoint vectors: little-endian, so their bytes do not
# depend on the host.
_VECTOR_DTYPE = np.dtype("<f8")

# a checkpointed scale is scale_NN plus each suffix (row, psi, phi), and
# CHECKPOINT_NAME matches every file of a current checkpoint directory
_CHECKPOINT_SUFFIXES = (".json", "_psi.npy", "_phi.npy")
CHECKPOINT_NAME = re.compile(r"scale_\d{2,}(%s)"
                             % "|".join(map(re.escape, _CHECKPOINT_SUFFIXES)))


@dataclass(frozen=True)
class SweepConfig:
    params: ModelParams = ModelParams()
    spec: GridSpec = GridSpec()
    epsilon: float = 0.5
    n_scales: int = 5
    photon_cap: int = 2
    tol: float = 1e-10
    max_probes: int = 12
    dim_cap: int = 200_000

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.n_scales < 1:
            raise ValueError("need at least one scale")

    def sigma_at(self, n: int) -> float:
        return self.params.kappa * self.epsilon**n

    def content_hash(self) -> str:
        blob = json.dumps({"numerics": NUMERICS_VERSION, **asdict(self)},
                          sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class ScaleRow:
    """Ledger entries for one scale; arrays stored as plain lists for I/O."""

    n: int
    sigma: float
    n_modes: int
    dim: int
    energy: float
    energy_w: float
    gap: float
    gap_w: float
    grad_e: list
    grad_norm: float
    alpha_min: float
    h_norm: float
    energy_drop: float = math.nan
    c_energy: float = math.nan
    grad_drift: float = math.nan
    proj_overlap: float = math.nan
    phi_hat_diff: float = math.nan
    psi_cauchy: float = math.nan
    phi_cauchy: float = math.nan
    transfer_defect: float = math.nan
    contour_sups: list = field(default_factory=lambda: [math.nan] * 3)
    contour_gap: float = math.nan
    rgamma_norm: float = math.nan
    f1_bound_c: float = math.nan
    deficit: float = math.nan
    radial_hessian: float = math.nan
    d3_radial: float = math.nan
    n0: float = math.nan
    n1: float = math.nan
    n2: float = math.nan
    energy_mismatch: float = math.nan
    dressing_defect: float = math.nan
    grad_defect_norm: float = math.nan
    grid_hash: str = ""
    basis_hash: str = ""
    wall_time: float = 0.0


def fit_exponent(x, y):
    """Least-squares slope of log y against log x with its standard error.

    Returns (slope, stderr); nan stderr when fewer than three points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
    lx, ly = np.log(x[keep]), np.log(y[keep])
    if len(lx) < 2:
        return math.nan, math.nan
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    if len(lx) < 3:
        return slope, math.nan
    resid = ly - A @ coef
    s2 = float(resid @ resid) / (len(lx) - 2)
    var = s2 * np.linalg.inv(A.T @ A)[0, 0]
    return slope, float(math.sqrt(max(var, 0.0)))


@dataclass
class SweepResult:
    config: SweepConfig
    rows: list
    fits: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=float)

    def compute_fits(self) -> dict:
        """Scaling exponents over sigma, plus spreads of the per-scale
        stability constants.

        Exponent fits use the last four scales: the first scales after
        onset still carry the annulus-filling transient, and all power-law
        statements here are asymptotic ones.  Each fit carries the OLS slope
        standard error.
        """
        lo = max(1, len(self.rows) - 4)
        sig = self.column("sigma")[lo:]
        fits = {"fit_rows": (lo, len(self.rows) - 1)}
        for name in ("psi_cauchy", "phi_cauchy", "grad_drift", "n0", "n1"):
            fits[name] = fit_exponent(sig, self.column(name)[lo:])
        sups = np.array([max(r.contour_sups) for r in self.rows[lo:]])
        fits["contour_sup"] = fit_exponent(sig, sups)
        # delta-hat: ||R0 Gamma phi|| ~ c / sigma^delta, so delta = -slope
        slope, err = fit_exponent(sig, self.column("rgamma_norm")[lo:])
        fits["delta_hat"] = (-slope, err)
        ce = self.column("c_energy")[1:]
        ce = ce[np.isfinite(ce)]
        fits["c_energy_spread"] = (float(np.min(ce)), float(np.max(ce))) \
            if len(ce) else (math.nan, math.nan)
        cf = self.column("f1_bound_c")[1:]
        cf = cf[np.isfinite(cf)]
        fits["f1_bound_spread"] = (float(np.min(cf)), float(np.max(cf))) \
            if len(cf) else (math.nan, math.nan)
        # gradient drift against lambda^2 sigma_{n-1} + ||phi_hat - phi||
        lam2 = self.config.params.coupling ** 2
        ratios = []
        for r in self.rows[1:]:
            denom = lam2 * r.sigma / self.config.epsilon + r.phi_hat_diff
            if math.isfinite(r.grad_drift) and denom > 0:
                ratios.append(r.grad_drift / denom)
        fits["drift_constant"] = float(max(ratios)) if ratios else math.nan
        self.fits = fits
        return fits

    def to_csv(self, path):
        cols = [f for f in ScaleRow.__dataclass_fields__]
        with open(path, "w") as fh:
            header = []
            for c in cols:
                if c == "grad_e":
                    header += ["grad_e_x", "grad_e_y", "grad_e_z"]
                elif c == "contour_sups":
                    header += ["contour_sup_x", "contour_sup_y", "contour_sup_z"]
                else:
                    header.append(c)
            fh.write(",".join(header) + "\n")
            for r in self.rows:
                cells = []
                for c in cols:
                    v = getattr(r, c)
                    if c in ("grad_e", "contour_sups"):
                        cells += [repr(float(x)) for x in v]
                    elif isinstance(v, str):
                        cells.append(v)
                    elif isinstance(v, (int, np.integer)):
                        cells.append(repr(int(v)))
                    else:
                        cells.append(repr(float(v)))
                fh.write(",".join(cells) + "\n")


class RestoredScale(NamedTuple):
    """The part of a scale that the next scale reads of its predecessor,
    whether computed, loaded from a checkpoint or the closed-form scale 0.
    Carrying only these five fields releases the previous scale's matrices
    before the next starts.  `basis` is None for a loaded scale and for
    scale 0: `run_sweep` enumerates it only when the next scale is
    computed."""

    basis: FockBasis | None
    energy: float
    grad_e: np.ndarray
    psi: np.ndarray
    phi: np.ndarray

    @classmethod
    def of(cls, state: DressedScaleState) -> "RestoredScale":
        return cls(state.basis, state.energy, state.grad_e, state.psi, state.phi)


def _state_row(n: int, sigma: float, state: DressedScaleState) -> ScaleRow:
    """The ledger entries one dressed solve fixes; the rest keep their
    defaults until later stages fill them."""
    return ScaleRow(
        n=n, sigma=sigma, n_modes=state.grid.n_modes, dim=state.basis.dim,
        **state.record(),
        energy_mismatch=state.diagnostics["energy_mismatch"],
        dressing_defect=state.diagnostics["dressing_defect"],
        grad_defect_norm=state.diagnostics["grad_defect_norm"],
        grid_hash=state.grid.content_hash(), basis_hash=state.basis.content_hash(),
    )


def _scale_zero_row(config: SweepConfig) -> tuple:
    """Closed-form seed: empty annulus at sigma_0 = kappa.  Returns the row,
    the carry for scale 1 (without a basis) and the scale-0 grid.

    On the one-state basis the bare and the dressed Hamiltonian are the
    numbers |P|^2/2, the ground state is the vacuum, grad E = P and nothing
    is displaced.  The two energies are the two float expressions the
    pipeline's assembly forms, so they keep its bits, including the 1-ulp
    energy_mismatch some P give: the bare one sums |A|^2/2 component by
    component, the dressed one is the constant term of the closed route."""
    params = config.params.with_sigma(config.sigma_at(0))
    grid = build_grid(params, config.spec)
    P = params.P_vec
    energy = 0.0
    for p in P.tolist():
        energy += 0.5 * p * p
    energy_w = 0.5 * float(P @ P)
    pnorm = float(np.linalg.norm(P))
    kap = params.kappa
    gap_closed = kap * (1.0 - pnorm) + 0.5 * kap * kap
    row = ScaleRow(
        n=0, sigma=params.sigma, n_modes=grid.n_modes,
        dim=basis_dimension(grid.n_modes, config.photon_cap),
        energy=energy, energy_w=energy_w, gap=gap_closed, gap_w=gap_closed,
        grad_e=P.tolist(), grad_norm=pnorm, alpha_min=1.0 - pnorm,
        h_norm=0.0, energy_mismatch=abs(energy - energy_w), dressing_defect=0.0,
        grad_defect_norm=0.0, grid_hash=grid.content_hash(),
        basis_hash=basis_hash(grid.n_modes, config.photon_cap),
    )
    vacuum = np.ones(1)
    return row, RestoredScale(None, energy, P, vacuum, vacuum), grid


def _aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - s b|| with the sign s chosen to make the overlap positive."""
    sgn = math.copysign(1.0, float(a @ b))
    return float(np.linalg.norm(a - sgn * b))


def _intermediate_quantities(config: SweepConfig, state: DressedScaleState,
                             prev: RestoredScale,
                             row: ScaleRow):
    """Cauchy differences, projection overlap, frame-transfer defect, and
    contour sup norms against the intermediate Hamiltonian (previous
    gradient's dressing at the current cutoff)."""
    params, grid, basis = state.params, state.grid, state.basis
    chi = embed(prev.phi, prev.basis, basis)
    grad_prev = prev.grad_e

    # Cauchy increments of the ground-state sequences under embedding: the
    # bare one picks up the new annulus's coherent cloud (~ sigma^alpha_bar),
    # the dressed one only the residual fluctuations.
    row.psi_cauchy = _aligned_distance(state.psi, embed(prev.psi, prev.basis, basis))
    row.phi_cauchy = _aligned_distance(state.phi, chi)

    # H_int = W_{h_int - h} Hw W_{h_int - h}*: one displacement carries Hw's
    # two lowest eigenvectors close to H_int's, and LOBPCG starts from that
    # pair (phi1 is None only on one state, where no start is read).
    h_int = weyl_coefficients(params, grid, grad_prev)
    H_int = assemble(transformed_hamiltonian(params, grid, grad_prev), basis)
    rec_int = ground_state(H_int, config.tol, start=lambda: apply_displacement(
        basis, h_int - state.h, np.column_stack([state.phi, state.phi1])).T)
    row.proj_overlap = abs(float(rec_int.vector @ chi))
    # distance between the previous dressed state and its (unnormalized)
    # ground projection under the intermediate Hamiltonian
    row.phi_hat_diff = math.sqrt(max(0.0, 1.0 - row.proj_overlap**2))

    # The final and intermediate dressings differ by a single displacement
    # (real displacements commute); transporting the intermediate ground
    # state should reproduce the final one up to truncation.
    moved_int = apply_displacement(basis, state.h - h_int, rec_int.vector)
    row.transfer_defect = _aligned_distance(state.phi, moved_int)

    gam = gamma_operator(params, grid, grad_prev)
    radius = params.sigma / 3.0
    row.contour_gap = float(rec_int.gap - radius)
    sups = []
    for j in range(3):
        v = assemble_vector_component(gam, j, basis) @ chi
        sups.append(contour_sup_norm(H_int, rec_int.energy, rec_int.vector,
                                     radius, v, config.tol))
    row.contour_sups = sups


def _derivative_quantities(state: DressedScaleState, row: ScaleRow):
    rec = derivative_record(state)
    row.radial_hessian, row.d3_radial = rec["radial_hessian"], rec["d3_radial"]
    row.n0, row.n1, row.n2 = (rec["scaling_norms"][k] for k in ("n0", "n1", "n2"))
    # largest of the three reduced-resolvent norms ||R0 Gamma_i phi||; its
    # growth exponent over sigma is the delta-hat ledger quantity
    row.rgamma_norm = max(rec["phi_derivative_norms"])


def _compute_scale(config: SweepConfig, n: int, grid: MomentumGrid,
                   basis: FockBasis,
                   prev_state: RestoredScale):
    t0 = time.monotonic()
    sigma = config.sigma_at(n)
    params = config.params.with_sigma(sigma)
    state = dressed_ground_state(params, grid, basis, config.tol)
    row = _state_row(n, sigma, state)
    row.energy_drop = prev_state.energy - state.energy
    lam = config.params.coupling
    if lam > 0.0:
        row.c_energy = row.energy_drop / (lam * lam * config.sigma_at(n - 1))
    row.grad_drift = float(np.linalg.norm(state.grad_e - prev_state.grad_e))
    _intermediate_quantities(config, state, prev_state, row)
    bg = BareGround.from_state(state)
    row.f1_bound_c = bound_constant_f1(bg, extract_f1(bg))[0]
    row.deficit = dispersion_probe(params, grid, basis, split=state.split,
                                   energy=state.energy,
                                   max_probes=config.max_probes,
                                   tol=config.tol)[0]
    _derivative_quantities(state, row)
    row.wall_time = time.monotonic() - t0
    return row, RestoredScale.of(state)


def _checkpoint_paths(directory, n):
    base = os.path.join(str(directory), f"scale_{n:02d}")
    return tuple(base + suffix for suffix in _CHECKPOINT_SUFFIXES)


def _save_checkpoint(directory, config, n, row, state):
    """Write psi and phi as raw little-endian float64 .npy arrays, which keep
    every bit as repr text did, then the JSON: it is written last, so a
    scale without one was not finished and is recomputed."""
    meta, psi_path, phi_path = _checkpoint_paths(directory, n)
    for path, vec in ((psi_path, state.psi), (phi_path, state.phi)):
        # a complex vector fails the safe cast instead of losing its im part
        np.save(path, vec.astype(_VECTOR_DTYPE, casting="safe", copy=False),
                allow_pickle=False)
    payload = {"config_hash": config.content_hash(), "row": asdict(row)}
    with open(meta, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


@contextlib.contextmanager
def _naming(path):
    """Re-raise a defect read inside the block as a ValueError naming path."""
    try:
        yield
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from exc


def _read_vector(path, dim: int) -> np.ndarray:
    """One checkpoint vector: a .npy float64 array of shape (dim,) and
    nothing after it.  Anything else (a short or foreign file, a pickle, a
    complex or misshapen array) raises ValueError naming path."""
    with _naming(path), open(path, "rb") as fh:
        vec = np.lib.format.read_array(fh, allow_pickle=False)
        if vec.dtype != _VECTOR_DTYPE:
            raise ValueError(f"dtype {vec.dtype}, expected float64; "
                             "state vectors are real")
        if vec.shape != (dim,):
            raise ValueError(f"shape {vec.shape} does not match basis dim {dim}")
        if fh.read(1):
            raise ValueError("trailing bytes after the array")
    return vec


def _load_checkpoint(directory, config, n, grid):
    """Read a scale from disk; returns (row, RestoredScale), or None when a
    file is missing or a stored hash does not match, so that the scale is
    recomputed.  A file that does not parse, a row that is not a ledger
    row, or a vector that is not a float64 array of length
    C(M + Q, Q), raises ValueError naming the file.  The basis is known
    from (M, Q) alone, so none is enumerated: the carry has basis None."""
    meta, psi_path, phi_path = _checkpoint_paths(directory, n)
    if not (os.path.exists(meta) and os.path.exists(psi_path)
            and os.path.exists(phi_path)):
        return None
    with _naming(meta):
        with open(meta) as fh:
            payload = json.load(fh)
        if payload.get("config_hash") != config.content_hash():
            return None
        row = ScaleRow(**payload["row"])
    if row.grid_hash != grid.content_hash() \
            or row.basis_hash != basis_hash(grid.n_modes, config.photon_cap):
        return None
    dim = basis_dimension(grid.n_modes, config.photon_cap)
    vectors = [_read_vector(path, dim) for path in (psi_path, phi_path)]
    return row, RestoredScale(None, row.energy, np.asarray(row.grad_e, dtype=float),
                              *vectors)


def run_sweep(config: SweepConfig, checkpoint_dir=None,
              progress=None) -> SweepResult:
    """Run all scales, optionally checkpointing each to `checkpoint_dir` and
    resuming from any scale whose checkpoint matches the config."""
    row0, prev, grid = _scale_zero_row(config)
    rows = [row0]
    if progress:
        progress(row0)
    for n in range(1, config.n_scales):
        sigma = config.sigma_at(n)
        next_grid = refine_annulus(grid, sigma)
        if basis_dimension(next_grid.n_modes, config.photon_cap) > config.dim_cap:
            break  # the only early stop: callers see fewer than n_scales rows
        loaded = None
        if checkpoint_dir is not None:
            loaded = _load_checkpoint(checkpoint_dir, config, n, next_grid)
        if loaded is not None:
            row, prev = loaded
        else:
            if prev.basis is None:  # embedded into this scale's basis
                prev = prev._replace(basis=build_basis(grid.n_modes,
                                                       config.photon_cap))
            basis = build_basis(next_grid.n_modes, config.photon_cap)
            row, prev = _compute_scale(config, n, next_grid, basis, prev)
            if checkpoint_dir is not None:
                _save_checkpoint(checkpoint_dir, config, n, row, prev)
        rows.append(row)
        grid = next_grid
        if progress:
            progress(row)
    result = SweepResult(config, rows)
    result.compute_fits()
    return result
