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

Each ordering seq = (m_1, ..., m_q) of the modes is one resolvent chain
      R_q ... R_1 psi,
      R_j = (H_{P - k_{m_1} - ... - k_{m_j}} - E + |k_{m_1}| + ... + |k_{m_j}|)^{-1}.
`chain` memoizes every chain in `BareGround.chains` under the key
(seq, tol) and builds each link on the cached chain of seq[:-1], so f^1,
f^2 and f^3 share every common prefix: the first link of an f^q chain is
an f^1 solve, an f^3 chain extends an f^2 chain, and orderings that repeat
a mode sequence (tuples with a repeated mode) cost no solve.

The resolvent route also evaluates f^1 off the grid nodes (`f1_resolvent`),
which the cancellation demonstration for the second P-derivative of f^1
uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from .fiberop import assemble, momentum_shift_diagonal, nelson_hamiltonian
from .fock import FockBasis
from .grid import ModelParams, MomentumGrid, form_factor
from .spectral import DENSE_CUTOFF, ground_state, solve_shifted

__all__ = [
    "BareGround",
    "extract_fq",
    "extract_f1",
    "froehlich_fq",
    "froehlich_f1",
    "permutation_tail_sum",
    "permutation_identity_gap",
    "f1_resolvent",
    "bound_constant_f1",
]


@dataclass(frozen=True)
class BareGround:
    """Bare fiber ground-state bundle consumed by the wavefunction routines.

    `chains` maps (mode sequence, tol) to the resolvent chain computed for
    it by `chain`; it fills as the pull-through routines run.
    """

    params: ModelParams
    grid: MomentumGrid
    basis: FockBasis
    H: sp.csr_matrix
    energy: float
    psi: np.ndarray
    chains: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @classmethod
    def solve(cls, params: ModelParams, grid: MomentumGrid, basis: FockBasis,
              tol: float = 1e-10) -> "BareGround":
        H = assemble(nelson_hamiltonian(params, grid), basis)
        # Nothing here reads the gap.  Past DENSE_CUTOFF one Lanczos eigenpair
        # costs a quarter of two; below it the dense solve of two is as cheap
        # and exact in every component the extraction reads (at coupling 0,
        # exact zeros where a Lanczos vector leaves 1e-17).
        rec = ground_state(H, tol, gap=basis.dim <= DENSE_CUTOFF)
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


def chain(bg: BareGround, seq: tuple, tol: float) -> np.ndarray:
    """The resolvent chain R_q ... R_1 psi of the mode sequence
    seq = (m_1, ..., m_q) (module docstring).

    Every prefix is looked up in, or stored into, `bg.chains` under the key
    (prefix, tol), so a chain costs one solve per link not computed before.
    """
    v = bg.psi
    k_sum = np.zeros(3)
    freq = 0.0
    for j, m in enumerate(seq, 1):
        k_sum = k_sum + bg.grid.k[m]
        freq += bg.grid.r[m]
        key = (seq[:j], tol)
        if key not in bg.chains:
            bg.chains[key] = _shifted_solve(bg, k_sum, freq, v, tol)
        v = bg.chains[key]
    return v


def froehlich_fq(bg: BareGround, modes, tol: float = 1e-10) -> float:
    """f^q at a tuple of grid modes via the permutation sum of resolvent
    chains; exact on the untruncated discrete model."""
    modes = tuple(modes)
    q = len(modes)
    vac = 0.0
    for order in permutations(range(q)):
        vac += chain(bg, tuple(modes[j] for j in order), tol)[0]
    ff = float(np.prod(form_factor(bg.grid.k[list(modes)], bg.params)))
    return (-1.0) ** q * ff * vac / math.sqrt(math.factorial(q))


def froehlich_f1(bg: BareGround, tol: float = 1e-10) -> np.ndarray:
    """One-photon wavefunction via single resolvent solves at every grid
    node."""
    out = np.zeros(bg.grid.n_modes)
    for m in range(bg.grid.n_modes):
        vac = chain(bg, (m,), tol)[0]
        out[m] = -float(form_factor(bg.grid.k[m], bg.params)) * vac
    return out


def f1_resolvent(bg: BareGround, k, tol: float = 1e-10) -> float:
    """f^1(k) = -v(k) <Omega, (H_{P-k} - E + |k|)^{-1} psi> at an arbitrary
    probe momentum k (not restricted to grid nodes)."""
    k = np.asarray(k, dtype=float)
    a = _shifted_solve(bg, k, float(np.linalg.norm(k)), bg.psi, tol)
    return -float(form_factor(k, bg.params)) * a[0]


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
# infrared envelope


def bound_constant_f1(bg: BareGround, f1: np.ndarray):
    """Smallest c with |f^1(k_m)| <= c v*(k_m)/|k_m| over the grid, where v*
    is the widened-envelope form factor (no bridge suppression on-grid);
    c = 0 on a grid without modes.

    Returns (c, per-mode ratios)."""
    envelope = form_factor(bg.grid.k, bg.params, widened=True) / bg.grid.r
    ratios = np.divide(np.abs(f1), envelope, out=np.zeros_like(envelope),
                       where=envelope > 0.0)
    return float(np.max(ratios, initial=0.0)), ratios
