"""Momentum-space discretization for fiber Hamiltonians with an infrared cutoff.

Modes live in the spherical annulus sigma <= |k| <= kappa.  The radial
direction is split into log-spaced shells whose quadrature weights carry the
exact shell volume; angles use Gauss-Legendre nodes in cos(theta) and a
uniform azimuthal rule.  Refining a grid to a smaller infrared cutoff keeps
every parent mode unchanged (parent modes form a prefix of the refined mode
list), which makes truncated Fock spaces nested across scales.  Every shell
repeats one angular layout, so the layout's rotations and mirrors permute
the modes; `point_group_permutations` returns those that fix a momentum P.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ModelParams",
    "GridSpec",
    "MomentumGrid",
    "cutoff_chi",
    "form_factor",
    "build_grid",
    "refine_annulus",
    "point_group_permutations",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the fiber Hamiltonian family.

    coupling        overall coupling strength (lambda)
    alpha_bar       infrared regularity exponent in [0, 1/2]; 0 is the
                    infrared-singular case
    kappa           ultraviolet cutoff
    epsilon0        relative width of the smooth bridge of the UV cutoff
                    function (the bridge occupies [(1-epsilon0)*kappa, kappa])
    sigma           infrared cutoff, 0 < sigma <= kappa
    P               total momentum, 3-tuple
    """

    coupling: float = 0.1
    alpha_bar: float = 0.0
    kappa: float = 1.0
    epsilon0: float = 0.2
    sigma: float = 0.0625
    P: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not (0.0 <= self.alpha_bar <= 0.5):
            raise ValueError(f"alpha_bar must lie in [0, 1/2], got {self.alpha_bar}")
        if not (0.0 < self.sigma <= self.kappa):
            raise ValueError(f"need 0 < sigma <= kappa, got sigma={self.sigma}, kappa={self.kappa}")
        if not (0.0 < self.epsilon0 < 1.0):
            raise ValueError(f"epsilon0 must lie in (0, 1), got {self.epsilon0}")
        if len(self.P) != 3:
            raise ValueError("P must be a 3-vector")

    def with_sigma(self, sigma: float) -> "ModelParams":
        return replace(self, sigma=sigma)

    def with_P(self, P) -> "ModelParams":
        return replace(self, P=(float(P[0]), float(P[1]), float(P[2])))

    @property
    def P_vec(self) -> np.ndarray:
        return np.asarray(self.P, dtype=float)


@dataclass(frozen=True)
class GridSpec:
    """Resolution knobs for build_grid / refine_annulus."""

    shells_per_decade: int = 4
    n_polar: int = 4
    n_azimuthal: int = 4

    def __post_init__(self):
        if self.shells_per_decade < 1 or self.n_polar < 1 or self.n_azimuthal < 1:
            raise ValueError("grid resolution parameters must be >= 1")


def _smoothstep_quintic(t):
    """C^2 step: 0 -> 1 on [0, 1] with vanishing first and second derivative
    at both ends (10 t^3 - 15 t^4 + 6 t^5)."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def cutoff_chi(r, kappa: float, epsilon0: float):
    """Smooth UV cutoff profile chi_kappa(|k|).

    Equals 1 for |k| <= (1-epsilon0)*kappa, falls smoothly (C^2) to 0 at
    |k| = kappa, and vanishes beyond.
    """
    r = np.asarray(r, dtype=float)
    lo = (1.0 - epsilon0) * kappa
    t = (r - lo) / (epsilon0 * kappa)
    # hard edges: exactly 1 / 0 off the bridge
    out = np.where(r <= lo, 1.0, np.where(r >= kappa, 0.0,
                                          1.0 - _smoothstep_quintic(t)))
    return out if out.ndim else float(out)


def form_factor(k, params: ModelParams, widened: bool = False):
    """Coupling function v(k) of the interaction term.

    v(k) = coupling * 1_{|k| >= sigma} * chi_kappa(|k|) * |k|^alpha_bar / sqrt(2 |k|)

    `k` is one 3-vector or an (M, 3) array.  With widened=True the cutoff
    profile is stretched to kappa/(1-epsilon0), the envelope used for
    wavefunction bound checks.
    """
    k = np.asarray(k, dtype=float)
    single = k.ndim == 1
    r = np.linalg.norm(np.atleast_2d(k), axis=1)
    kap = params.kappa / (1.0 - params.epsilon0) if widened else params.kappa
    a = params.alpha_bar
    mask = r >= params.sigma
    rs = np.where(r > 0.0, r, 1.0)  # guard |k|=0; masked out below anyway
    chi0 = cutoff_chi(rs, kap, params.epsilon0)
    radial = rs ** (a - 0.5) / math.sqrt(2.0)
    out = params.coupling * chi0 * radial
    out = np.where(mask & (r > 0.0), out, 0.0)
    return float(out[0]) if single else out


class MomentumGrid:
    """Discrete photon modes: positions k, quadrature weights w, shell ids.

    Attributes
    ----------
    k : (M, 3) float array of mode positions
    w : (M,) float array of quadrature weights (sum = annulus volume)
    r : (M,) float array of |k|
    shell : (M,) int array, radial shell index of each mode
    shell_bounds : list of (r_lo, r_hi) per shell index
    sigma, kappa : covered radial range [sigma, kappa]
    spec : GridSpec used to build it
    """

    def __init__(self, k, w, shell, shell_bounds, sigma, kappa, spec: GridSpec):
        self.k = np.asarray(k, dtype=float).reshape(-1, 3)
        self.w = np.asarray(w, dtype=float).reshape(-1)
        self.shell = np.asarray(shell, dtype=int).reshape(-1)
        self.shell_bounds = [(float(a), float(b)) for a, b in shell_bounds]
        self.sigma = float(sigma)
        self.kappa = float(kappa)
        self.spec = spec
        if not (len(self.k) == len(self.w) == len(self.shell)):
            raise ValueError("inconsistent grid arrays")
        self.r = np.linalg.norm(self.k, axis=1)

    @property
    def n_modes(self) -> int:
        return len(self.w)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.k.tobytes())
        h.update(self.w.tobytes())
        h.update(self.shell.astype(np.int64).tobytes())
        return h.hexdigest()[:16]


def _radial_shells(r_lo: float, r_hi: float, shells_per_decade: int):
    """Log-spaced shell boundaries covering [r_lo, r_hi]."""
    decades = math.log10(r_hi / r_lo)
    n = max(1, math.ceil(shells_per_decade * decades - 1e-12))
    edges = np.logspace(math.log10(r_lo), math.log10(r_hi), n + 1)
    edges[0], edges[-1] = r_lo, r_hi
    return [(edges[i], edges[i + 1]) for i in range(n)]


def _angular_nodes(spec: GridSpec):
    """Gauss-Legendre in cos(theta) x uniform azimuth; weights sum to 4 pi."""
    xi, wp = np.polynomial.legendre.leggauss(spec.n_polar)
    phis = 2.0 * math.pi * (np.arange(spec.n_azimuthal) + 0.5) / spec.n_azimuthal
    dphi = 2.0 * math.pi / spec.n_azimuthal
    nodes = []
    for c, wc in zip(xi, wp):
        s = math.sqrt(max(0.0, 1.0 - c * c))
        for phi in phis:
            nodes.append((s * math.cos(phi), s * math.sin(phi), c, wc * dphi))
    return nodes


def _shell_modes(bounds, spec: GridSpec, first_shell_index: int):
    """Modes and exact-volume weights for the given radial shells."""
    angular = _angular_nodes(spec)
    k, w, shell = [], [], []
    for j, (r_lo, r_hi) in enumerate(bounds):
        vol_r = (r_hi**3 - r_lo**3) / 3.0  # radial part of the shell volume
        # volume-centroid radius of the shell
        r_node = 0.75 * (r_hi**4 - r_lo**4) / (r_hi**3 - r_lo**3)
        for ux, uy, uz, w_ang in angular:
            k.append((r_node * ux, r_node * uy, r_node * uz))
            w.append(vol_r * w_ang)
            shell.append(first_shell_index + j)
    return np.array(k), np.array(w), np.array(shell, dtype=int)


def build_grid(params: ModelParams, spec: GridSpec | None = None) -> MomentumGrid:
    """Discretize the annulus [sigma, kappa].

    The weights sum to the exact annulus volume 4 pi (kappa^3 - sigma^3) / 3.
    With sigma == kappa the grid is empty (no interacting modes).
    """
    spec = spec or GridSpec()
    if params.sigma >= params.kappa:
        return MomentumGrid(np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=int),
                            [], params.sigma, params.kappa, spec)
    bounds = _radial_shells(params.sigma, params.kappa, spec.shells_per_decade)
    k, w, shell = _shell_modes(bounds, spec, 0)
    return MomentumGrid(k, w, shell, bounds, params.sigma, params.kappa, spec)


def refine_annulus(grid: MomentumGrid, new_sigma: float) -> MomentumGrid:
    """Extend `grid` inward to cover [new_sigma, kappa].

    Parent modes are preserved verbatim as a prefix of the refined mode list;
    new shells cover [new_sigma, old_sigma) at the same per-decade resolution
    and angular layout.  This keeps variational spaces nested across scales.
    """
    if new_sigma >= grid.sigma:
        raise ValueError(f"new_sigma must shrink the cutoff: {new_sigma} >= {grid.sigma}")
    bounds = _radial_shells(new_sigma, grid.sigma, grid.spec.shells_per_decade)
    n_old_shells = len(grid.shell_bounds)
    k_new, w_new, shell_new = _shell_modes(bounds, grid.spec, n_old_shells)
    return MomentumGrid(np.vstack([grid.k, k_new]), np.concatenate([grid.w, w_new]),
                        np.concatenate([grid.shell, shell_new]),
                        list(grid.shell_bounds) + bounds,
                        new_sigma, grid.kappa, grid.spec)


def _layout_symmetries(n_azimuthal: int) -> list:
    """Orthogonal maps of the angular layout onto itself: rotations about z
    by 2 pi s / n and mirrors in the vertical planes at azimuth pi s / n,
    each with or without z -> -z; the identity first."""
    maps = []
    for zflip in (1.0, -1.0):
        for s in range(n_azimuthal):
            angle = 2.0 * math.pi * s / n_azimuthal
            c, t = math.cos(angle), math.sin(angle)
            maps.append(np.array([[c, -t, 0.0], [t, c, 0.0], [0.0, 0.0, zflip]]))
            maps.append(np.array([[c, t, 0.0], [t, -c, 0.0], [0.0, 0.0, zflip]]))
    return maps


def point_group_permutations(grid: MomentumGrid, P) -> list:
    """Mode permutations of the grid's point group that fix the momentum P.

    The candidates are the symmetries of the `n_azimuthal` layout (see
    `_layout_symmetries`).  A candidate R is kept when R P = P and R maps
    every mode onto a mode of equal weight; its permutation `perm` has
    k[perm[m]] = R k[m].  Both tests allow rounding only (1e-12 relative).
    The identity comes first, so a grid without such a symmetry, or an off-
    axis P, yields [identity].  R commutes with |k|, the weights and P, so a
    fiber quantity at P - k[m] is the same at P - k[perm[m]]."""
    P = np.asarray(P, dtype=float)
    k = grid.k
    tol = 1e-12 * max(grid.kappa, 1.0)
    perms = []
    for R in _layout_symmetries(grid.spec.n_azimuthal):
        if np.linalg.norm(R @ P - P) > 1e-12 * max(float(np.linalg.norm(P)), 1.0):
            continue
        dist = np.linalg.norm((k @ R.T)[:, None, :] - k[None, :, :], axis=2)
        perm = np.argmin(dist, axis=1) if len(k) else np.zeros(0, dtype=int)
        if np.all(dist[np.arange(len(k)), perm] <= tol) \
                and len(np.unique(perm)) == len(k) \
                and np.allclose(grid.w[perm], grid.w, rtol=1e-12, atol=0.0):
            perms.append(perm)
    return perms
