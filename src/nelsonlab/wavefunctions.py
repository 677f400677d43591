"""Photon momentum-space wavefunctions of fiber ground states.

Two independent routes to the q-photon wavefunction f^q at grid nodes:

* extraction -- read Fock coefficients off a computed ground vector and
  undo the discretization weights:
      f^q = c_n * prod_m sqrt(n_m!) / (sqrt(q!) * prod_j sqrt(w_j));
* resolvent chains -- iterate the pull-through identity
      b_m psi = -g_m (H_{P-k_m} - E + |k_m|)^{-1} psi
  into a sum over annihilation orderings with momentum/frequency tail sums.

On the truncated model the two agree up to top-sector contamination, which
dies factorially in the photon cap.  The scalar skeleton of the permutation
sum is the exact identity
      sum_pi prod_j 1 / (a_pi(1) + ... + a_pi(j)) = prod_j 1 / a_j,
checked here in exact rational arithmetic.

The resolvent route extends off the grid nodes, so momentum derivatives of
f^1 (in P and in k) have closed insertion formulas that finite differences
of the same function must reproduce at quadrature order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from .dressing import hellmann_feynman_gradient
from .fiberop import assemble, momentum_shift_diagonal, nelson_hamiltonian, pf_diagonals
from .fock import FockBasis
from .grid import ModelParams, MomentumGrid, form_factor
from .spectral import ground_state, solve_reduced_resolvent, solve_shifted

__all__ = [
    "BareGround",
    "extract_fq",
    "extract_f1",
    "froehlich_fq",
    "froehlich_f1",
    "permutation_tail_sum",
    "permutation_identity_gap",
    "bare_psi_derivatives",
    "f1_resolvent",
    "grad_f1_P",
    "reduced_f1_k_derivatives",
    "f1_k_derivatives",
    "bound_constant_f1",
]


@dataclass
class BareGround:
    """Bare fiber ground-state bundle consumed by the wavefunction routines."""

    params: ModelParams
    grid: MomentumGrid
    basis: FockBasis
    H: sp.csr_matrix
    energy: float
    psi: np.ndarray

    @classmethod
    def solve(cls, params: ModelParams, grid: MomentumGrid, basis: FockBasis,
              tol: float = 1e-10) -> "BareGround":
        H = assemble(nelson_hamiltonian(params, grid), basis)
        rec = ground_state(H, tol)
        return cls(params, grid, basis, H, rec.energy, rec.vector)

    @classmethod
    def from_state(cls, state) -> "BareGround":
        """Adopt the bare half of a dressed pipeline state."""
        return cls(state.params, state.grid, state.basis, state.H,
                   state.energy, state.psi)


# ---------------------------------------------------------------------------
# extraction route


def extract_fq(bg: BareGround, q: int) -> dict:
    """All q-photon wavefunction values read off the ground vector.

    Keys are the sorted mode tuples of the basis states; values carry the
    sqrt(n!)/sqrt(q!) multiplicity factors and the 1/sqrt(w) node weights.
    """
    basis, grid = bg.basis, bg.grid
    sqrt_fact = [math.sqrt(math.factorial(n)) for n in range(basis.n_max + 1)]
    root_q = math.sqrt(math.factorial(q))
    out = {}
    for i, state in enumerate(basis.states):
        if len(state) != q:
            continue
        val = bg.psi[i] / root_q
        mult = 1
        for m in set(state):
            mult *= math.factorial(state.count(m))
        val *= math.sqrt(mult)
        for m in state:
            val /= math.sqrt(grid.w[m])
        out[state] = float(val)
    return out


def extract_f1(bg: BareGround) -> np.ndarray:
    """One-photon wavefunction at every grid node."""
    table = extract_fq(bg, 1)
    out = np.zeros(bg.grid.n_modes)
    for (m,), val in table.items():
        out[m] = val
    return out


# ---------------------------------------------------------------------------
# resolvent-chain route


def _shifted_solve(bg: BareGround, k_total: np.ndarray, freq_total: float,
                   rhs: np.ndarray, tol: float) -> np.ndarray:
    """x = (H_{P - k_total} - E + freq_total)^{-1} rhs, using that only the
    diagonal of H moves under a momentum shift."""
    P = bg.params.P_vec
    shift = momentum_shift_diagonal(bg.basis, bg.grid, P, P - k_total)
    return solve_shifted(bg.H, bg.energy - freq_total - shift, rhs, tol)


def froehlich_fq(bg: BareGround, modes, tol: float = 1e-10) -> float:
    """f^q at a tuple of grid modes via the permutation sum of resolvent
    chains; exact on the untruncated discrete model."""
    modes = tuple(modes)
    q = len(modes)
    vac = 0.0
    for order in permutations(range(q)):
        v = bg.psi
        k_sum = np.zeros(3)
        freq = 0.0
        for j in order:
            m = modes[j]
            k_sum = k_sum + bg.grid.k[m]
            freq += bg.grid.r[m]
            v = _shifted_solve(bg, k_sum, freq, v, tol)
        vac += v[0]
    ff = float(np.prod(form_factor(bg.grid.k[list(modes)], bg.params)))
    return (-1.0) ** q * ff * vac / math.sqrt(math.factorial(q))


def froehlich_f1(bg: BareGround, modes=None, tol: float = 1e-10) -> np.ndarray:
    """One-photon wavefunction via single resolvent solves, at the given
    mode indices (default all)."""
    idx = range(bg.grid.n_modes) if modes is None else modes
    out = np.zeros(bg.grid.n_modes if modes is None else len(tuple(idx)))
    for i, m in enumerate(idx):
        v = _shifted_solve(bg, bg.grid.k[m], bg.grid.r[m], bg.psi, tol)
        out[i] = -float(form_factor(bg.grid.k[m], bg.params)) * v[0]
    return out


# ---------------------------------------------------------------------------
# scalar skeleton of the permutation sum


def permutation_tail_sum(a):
    """sum over orderings of prod_j 1/(a_{pi(1)} + ... + a_{pi(j)}), computed
    exactly when the inputs are Fractions/ints."""
    a = list(a)
    exact = all(isinstance(x, (int, Fraction)) for x in a)
    one = Fraction(1) if exact else 1.0
    total = one * 0
    for order in permutations(a):
        run = one * 0
        prod = one
        for x in order:
            run = run + x
            prod = prod * run
        total = total + one / prod
    return total


def permutation_identity_gap(a) -> float:
    """Relative gap between the permutation tail sum and its closed form
    prod_j 1/a_j, in floating point."""
    a = [float(x) for x in a]
    closed = 1.0
    for x in a:
        closed /= x
    return abs(permutation_tail_sum(a) - closed) / abs(closed)


# ---------------------------------------------------------------------------
# momentum derivatives of f^1


def bare_psi_derivatives(bg: BareGround, gradE=None, tol: float = 1e-10) -> np.ndarray:
    """(dim, 3) eigenvector derivatives of the bare family:
    d(psi)/dP_i = -R0 [ ((P - P_f)_i - dE/dP_i) psi ]."""
    if gradE is None:
        gradE = hellmann_feynman_gradient(bg.params, bg.grid, bg.basis, bg.psi)
    pf = pf_diagonals(bg.basis, bg.grid)
    P = bg.params.P_vec
    cols = []
    for i in range(3):
        rhs = -((P[i] - pf[:, i]) * bg.psi - gradE[i] * bg.psi)
        cols.append(solve_reduced_resolvent(bg.H, bg.energy, bg.psi, rhs, tol))
    return np.column_stack(cols)


def f1_resolvent(bg: BareGround, k, tol: float = 1e-10):
    """(f^1(k), resolvent vector a = (H_{P-k} - E + |k|)^{-1} psi) at an
    arbitrary probe momentum k (not restricted to grid nodes)."""
    k = np.asarray(k, dtype=float)
    a = _shifted_solve(bg, k, float(np.linalg.norm(k)), bg.psi, tol)
    return -float(form_factor(k, bg.params)) * a[0], a


def grad_f1_P(bg: BareGround, k, gradE=None, dpsi=None, tol: float = 1e-10) -> np.ndarray:
    """dP-gradient of f^1(k) at fixed k:

        d_i f^1 = v(k) [ <Omega, R ((P-k-P_f)_i - dE_i) R psi>
                         - <Omega, R d_i psi> ],

    with R = (H_{P-k} - E + |k|)^{-1}."""
    k = np.asarray(k, dtype=float)
    if gradE is None:
        gradE = hellmann_feynman_gradient(bg.params, bg.grid, bg.basis, bg.psi)
    if dpsi is None:
        dpsi = bare_psi_derivatives(bg, gradE, tol)
    pf = pf_diagonals(bg.basis, bg.grid)
    P = bg.params.P_vec
    r = float(np.linalg.norm(k))
    a = _shifted_solve(bg, k, r, bg.psi, tol)
    e0 = np.zeros(bg.basis.dim)
    e0[0] = 1.0
    y = _shifted_solve(bg, k, r, e0, tol)
    v = float(form_factor(k, bg.params))
    out = np.empty(3)
    for i in range(3):
        insertion = ((P[i] - k[i]) - pf[:, i]) * a - gradE[i] * a
        out[i] = v * (float(y @ insertion) - float(y @ dpsi[:, i]))
    return out


def _khat_jacobian(k: np.ndarray) -> np.ndarray:
    r = float(np.linalg.norm(k))
    khat = k / r
    return (np.eye(3) - np.outer(khat, khat)) / r


def reduced_f1_k_derivatives(bg: BareGround, k, tol: float = 1e-10):
    """Value, gradient, and hessian in k of the reduced wavefunction
    r(k) = <Omega, (H_{P-k} - E + |k|)^{-1} psi>.

    Insertion operators: M_i = (P - k - P_f)_i - khat_i moves one resolvent
    index, dM its k-derivative; then

        d_i r     = <Omega, R M_i R psi>,
        d_ij r    = <Omega, R (M_j R M_i + dM_ij + M_i R M_j) R psi>.
    """
    k = np.asarray(k, dtype=float)
    r = float(np.linalg.norm(k))
    khat = k / r
    pf = pf_diagonals(bg.basis, bg.grid)
    P = bg.params.P_vec

    def apply_M(i, vec):
        return ((P[i] - k[i]) - pf[:, i]) * vec - khat[i] * vec

    a = _shifted_solve(bg, k, r, bg.psi, tol)
    e0 = np.zeros(bg.basis.dim)
    e0[0] = 1.0
    y = _shifted_solve(bg, k, r, e0, tol)

    value = float(a[0])
    grad = np.array([float(y @ apply_M(i, a)) for i in range(3)])

    dM = -np.eye(3) - _khat_jacobian(k)
    b = [_shifted_solve(bg, k, r, apply_M(i, a), tol) for i in range(3)]
    hess = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            hij = float(y @ apply_M(j, b[i])) + float(y @ apply_M(i, b[j])) \
                + dM[i, j] * float(y @ a)
            hess[i, j] = hess[j, i] = hij
    return value, grad, hess


def f1_k_derivatives(bg: BareGround, k, tol: float = 1e-10):
    """Value, gradient, and hessian in k of f^1(k) = -v(|k|) r(k), combining
    the radial form-factor derivatives with the resolvent insertions."""
    k = np.asarray(k, dtype=float)
    r = float(np.linalg.norm(k))
    khat = k / r
    val_r, grad_r, hess_r = reduced_f1_k_derivatives(bg, k, tol)
    v0 = float(form_factor(k, bg.params))
    v1 = float(form_factor(k, bg.params, deriv=1))
    v2 = float(form_factor(k, bg.params, deriv=2))
    value = -v0 * val_r
    grad_v = v1 * khat
    hess_v = v2 * np.outer(khat, khat) + v1 * _khat_jacobian(k)
    grad = -(grad_v * val_r + v0 * grad_r)
    hess = -(hess_v * val_r + np.outer(grad_v, grad_r)
             + np.outer(grad_r, grad_v) + v0 * hess_r)
    return value, grad, hess


# ---------------------------------------------------------------------------
# infrared envelope


def bound_constant_f1(bg: BareGround, f1: np.ndarray | None = None):
    """Smallest c with |f^1(k_m)| <= c v*(k_m)/|k_m| over the grid, where v*
    is the widened-envelope form factor (no bridge suppression on-grid).

    Returns (c, per-mode ratios)."""
    if f1 is None:
        f1 = extract_f1(bg)
    envelope = form_factor(bg.grid.k, bg.params, widened=True) / bg.grid.r
    ratios = np.divide(np.abs(f1), envelope, out=np.zeros_like(envelope),
                       where=envelope > 0.0)
    return float(np.max(ratios)), ratios
