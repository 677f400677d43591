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

Each ordering (m_1, ..., m_q) of the modes is one resolvent chain
      R_q ... R_1 psi,
      R_j = (H_{P - k_{m_1} - ... - k_{m_j}} - E + |k_{m_1}| + ... + |k_{m_j}|)^{-1}.
The last link R_q depends only on the multiset T of the modes, through
their total momentum and total frequency, so every ordering of T ends in
the same R(T), and the sum S(T) over the orderings of T obeys
      S(T) = R(T) sum_{positions p} S(T - p),    S(empty) = psi.
`ordering_sums` runs this recursion one level (multiset size) at a time
and memoizes S in `BareGround.chains` under (sorted T, tol): one shifted
solve per sub-multiset instead of one per ordering prefix.  f^1, f^2 and
f^3 share every common sub-multiset: S((m,)) is the f^1 solve, and each
f^3 sum reads the f^2 sums below it.

A momentum shift moves only the diagonal of H, and H is diagonal on its
top photon sector, so the R(T) of one level are `solve_shifted` calls on
`BareGround.split`, the one handle on H, split once where H is assembled,
each with up to BLOCK_WIDTH right-hand sides: the top sector is eliminated
exactly and one block MINRES iterates over the lower sectors alone.

The same shifted solves evaluate f^1 off the grid nodes and decompose its
second P-derivative into the terms whose pole singularities cancel
(`cancellation_demo`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np

from .dressing import hellmann_feynman_gradient
from .fiberop import assemble, momentum_shift_diagonal, nelson_hamiltonian, \
    pf_diagonals
from .fock import FockBasis
from .grid import ModelParams, MomentumGrid, form_factor
from .spectral import SchurSplit, ground_state, solve_reduced_resolvent, \
    solve_shifted

__all__ = [
    "BareGround",
    "extract_fq",
    "extract_f1",
    "froehlich_fq",
    "froehlich_f1",
    "ordering_sums",
    "permutation_tail_sum",
    "permutation_identity_gap",
    "bound_constant_f1",
    "cancellation_demo",
]

BLOCK_WIDTH = 8
"""Most columns (multisets) one `solve_shifted` call of `ordering_sums`
takes.  One sparse product serves a block's columns, so wider blocks cut
the per-step overhead, while each column of the block keeps (dim,) arrays
for the right-hand side, the shift and the solution alive."""


@dataclass(frozen=True)
class BareGround:
    """Bare fiber ground-state bundle consumed by the wavefunction routines.

    `chains` maps (sorted mode tuple T, tol) to the ordering sum S(T) that
    `ordering_sums` computed for it; it fills as the pull-through routines
    run.  `split` is the bare H, held only as its split at the top photon
    sector (`SchurSplit`), which serves the bare solve, every shifted solve
    and every reduced solve.  `H` names the same split for the benchmark's
    exactness check (`perfbench/checks.py`), which rebuilds a bundle from
    `bg.H`; it is no second form of H.
    """

    params: ModelParams
    grid: MomentumGrid
    basis: FockBasis
    split: SchurSplit = field(repr=False, compare=False)
    energy: float
    psi: np.ndarray
    chains: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def H(self) -> SchurSplit:
        return self.split

    @classmethod
    def solve(cls, params: ModelParams, grid: MomentumGrid, basis: FockBasis,
              tol: float = 1e-10) -> "BareGround":
        split = SchurSplit(assemble(nelson_hamiltonian(params, grid), basis))
        rec = ground_state(split, tol, gap=False)
        return cls(params, grid, basis, split, rec.energy, rec.vector)

    @classmethod
    def from_state(cls, state) -> "BareGround":
        """Adopt the bare half of a dressed pipeline state, its split
        included: nothing is built."""
        return cls(state.params, state.grid, state.basis, state.split,
                   state.energy, state.psi)


# ---------------------------------------------------------------------------
# extraction route


def extract_fq(bg: BareGround, q: int) -> dict:
    """All q-photon wavefunction values read off the ground vector.

    Keys are the sorted mode tuples of the basis states; values carry the
    sqrt(n!)/sqrt(q!) multiplicity factors and the 1/sqrt(w) node weights.
    """
    basis = bg.basis
    if q > basis.n_max:
        return {}
    modes = basis.sectors[q]
    # prod_m n_m! as the product of every mode's position in its run, exact
    run = np.ones(len(modes))
    mult = np.ones(len(modes))
    for j in range(1, q):
        run = np.where(modes[:, j] == modes[:, j - 1], run + 1.0, 1.0)
        mult *= run
    val = bg.psi[basis.offsets[q]:basis.offsets[q + 1]] / math.sqrt(math.factorial(q))
    val *= np.sqrt(mult)
    for j in range(q):
        val /= np.sqrt(bg.grid.w[modes[:, j]])
    return dict(zip(map(tuple, modes.tolist()), val.tolist()))


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
    return solve_shifted(bg.split, bg.energy - freq_total - shift, rhs, tol)


def _solve_block(bg: BareGround, pf: np.ndarray, block: list,
                 tol: float) -> np.ndarray:
    """The (dim, len(block)) array of S(T) for the sorted tuples T of
    `block`, all of one size with their sub-multisets in `bg.chains`, by
    one `solve_shifted` with a column per T.  Column j solves with
    H_{P - K_j} - E + |K_j|, K_j and |K_j| the total momentum and frequency
    of T_j; H_{P - K_j} - H_P is the diagonal (|P - K_j|^2 - |P|^2) / 2 +
    P_f . K_j, read off the photon momentum diagonals pf = P_f, so the
    column's shift is z_j = E - |K_j| minus that diagonal."""
    modes = np.array(block)
    k_total = bg.grid.k[modes].sum(axis=1)
    freq = bg.grid.r[modes].sum(axis=1)
    P = bg.params.P_vec
    z = pf @ -k_total.T
    z += bg.energy - freq - 0.5 * (np.sum((P - k_total) ** 2, axis=1) - P @ P)
    rhs = np.empty((bg.basis.dim, len(block)))
    for j, T in enumerate(block):
        parts = [_stored_sum(bg, T[:p] + T[p + 1:], tol) for p in range(len(T))]
        rhs[:, j] = sum(parts[1:], parts[0])
    return solve_shifted(bg.split, z, rhs, tol)


def _stored_sum(bg: BareGround, T: tuple, tol: float) -> np.ndarray:
    return bg.chains[(T, tol)] if T else bg.psi


def ordering_sums(bg: BareGround, tuples, tol: float) -> list:
    """[S(T) for T in tuples]: the sums over the orderings of each mode
    tuple T of R_q ... R_1 psi, by the recursion of the module docstring.

    The multisets these sums need and `bg.chains` lacks are solved level by
    level, smallest first: each level sorted, in blocks of at most
    BLOCK_WIDTH columns, one `solve_shifted` per block.  Every S is stored
    in `bg.chains` under the key (sorted T, tol), so a sum costs one column
    per sub-multiset not solved before."""
    keys = [tuple(sorted(T)) for T in tuples]
    levels: dict = {}
    todo = list(keys)
    while todo:
        T = todo.pop()
        if T and (T, tol) not in bg.chains and T not in levels.setdefault(len(T), set()):
            levels[len(T)].add(T)
            todo.extend(T[:p] + T[p + 1:] for p in range(len(T)))
    if levels:
        pf = pf_diagonals(bg.basis, bg.grid)
    for q in sorted(levels):
        level = sorted(levels[q])
        for start in range(0, len(level), BLOCK_WIDTH):
            block = level[start:start + BLOCK_WIDTH]
            sums = _solve_block(bg, pf, block, tol).T.copy()
            bg.chains.update(((T, tol), S) for T, S in zip(block, sums))
    return [_stored_sum(bg, T, tol) for T in keys]


def froehlich_fq(bg: BareGround, modes, tol: float = 1e-10) -> float:
    """f^q at a tuple of grid modes via the permutation sum of resolvent
    chains; exact on the untruncated discrete model."""
    modes = tuple(modes)
    q = len(modes)
    vac = ordering_sums(bg, [modes], tol)[0][0]
    ff = float(np.prod(form_factor(bg.grid.k[list(modes)], bg.params)))
    return (-1.0) ** q * ff * vac / math.sqrt(math.factorial(q))


def froehlich_f1(bg: BareGround, tol: float = 1e-10) -> np.ndarray:
    """One-photon wavefunction via single resolvent solves at every grid
    node, all in one call of `ordering_sums`."""
    sums = ordering_sums(bg, [(m,) for m in range(bg.grid.n_modes)], tol)
    out = np.zeros(bg.grid.n_modes)
    for m, S in enumerate(sums):
        out[m] = -float(form_factor(bg.grid.k[m], bg.params)) * S[0]
    return out


# ---------------------------------------------------------------------------
# cancellation demonstration for the second P-derivative of f^1


def _bare_directional_data(bg: BareGround, e: np.ndarray, tol: float):
    """(grad E, M diagonal, directional dpsi, directional hessian) for a
    bare ground state; exact derivatives of the truncated eigenvalue
    family."""
    grad = hellmann_feynman_gradient(bg.params, bg.grid, bg.basis, bg.psi)
    pf_e = pf_diagonals(bg.basis, bg.grid) @ e
    m_diag = float(bg.params.P_vec @ e) - pf_e - float(grad @ e)
    rhs = m_diag * bg.psi
    dpsi = -solve_reduced_resolvent(bg.split, bg.energy, bg.psi, rhs, tol)
    hess = 1.0 + 2.0 * float(rhs @ dpsi)
    return grad, m_diag, dpsi, hess


def cancellation_demo(params: ModelParams, grid: MomentumGrid, basis: FockBasis,
                      k_probe, tol: float = 1e-10) -> dict:
    """Decompose the second P-derivative of f^1(k) along e = k-hat.

    With R = (H_{P-k} - E_P + |k|)^{-1} and M = (P - k - P_f - grad E_P).e,
    differentiating f^1 = -v <Omega, R psi_P> twice in direction e gives the
    exact five-term expansion (everything a polynomial family in P, so the
    terms are exact derivatives of the truncated model):

        d2 f^1 = -v [ 2 <Omega, R M R M R psi>               (chains)
                      - (1 - e.HessE_P.e) <Omega, R^2 psi>   (undesirable)
                      - 2 <Omega, R M R dpsi>                (cross)
                      + <Omega, R d2psi> ]                   (curvature)

    The scalar pole terms isolate the ground-state channel of the
    undesirable term and of the chains; each carries the full
    R_sc^2 = (E_{P-k} - E_P + |k|)^{-2} ~ |k|^{-2} singularity:

        T1      = (1 - e.HessE_P.e)     <Omega, psi_{P-k}> R_sc^2 v
        T2 = T3 = (e.HessE_{P-k}.e - 1) <Omega, psi_{P-k}> R_sc^2 v / 2

    and their sum is proportional to the hessian difference between P and
    P - k, one power of |k| better than any single term.
    """
    k_probe = np.asarray(k_probe, dtype=float)
    r = float(np.linalg.norm(k_probe))
    e = k_probe / r
    v = float(form_factor(k_probe, params))

    bg = BareGround.solve(params, grid, basis, tol)
    bg_k = BareGround.solve(params.with_P(tuple(params.P_vec - k_probe)),
                            grid, basis, tol)
    grad, m0_diag, dpsi, hess_P = _bare_directional_data(bg, e, tol)
    _, _, _, hess_Pk = _bare_directional_data(bg_k, e, tol)

    # shifted resolvent solves (H_{P-k} - E_P + |k|)^{-1} via the diagonal
    # momentum shift, exactly as in the pull-through formula
    def R(x):
        return _shifted_solve(bg, k_probe, r, x, tol)

    pf_e = pf_diagonals(basis, grid) @ e
    m_diag = float((params.P_vec - k_probe) @ e) - pf_e - float(grad @ e)

    omega = np.zeros(basis.dim)
    omega[0] = 1.0
    y = R(omega)
    x1 = R(bg.psi)
    chain = float(y @ (m_diag * R(m_diag * x1)))
    undesirable = -(1.0 - hess_P) * float(y @ x1)
    cross = -2.0 * float(y @ (m_diag * R(dpsi)))
    d2psi = -2.0 * solve_reduced_resolvent(bg.split, bg.energy, bg.psi,
                                           m0_diag * dpsi, tol) \
        - float(dpsi @ dpsi) * bg.psi
    curvature = float(y @ d2psi)
    terms = {"chains": -v * 2.0 * chain, "undesirable": -v * undesirable,
             "cross": -v * cross, "curvature": -v * curvature}
    d2_exact = sum(terms.values())

    # central finite difference of the full f^1(P) along e, each f^1 one
    # shifted solve off the grid nodes
    step = 5e-3 * max(r, 0.1)

    def f_at(p_vec):
        bgp = BareGround.solve(params.with_P(tuple(p_vec)), grid, basis, tol)
        return -v * float(_shifted_solve(bgp, k_probe, r, bgp.psi, tol)[0])

    p0 = params.P_vec
    f0 = -v * float(omega @ x1)
    d2_fd = (f_at(p0 + step * e) - 2.0 * f0 + f_at(p0 - step * e)) / step**2

    r_sc = 1.0 / (bg_k.energy - bg.energy + r)
    vac = abs(float(bg_k.psi[0]))
    common = vac * r_sc * r_sc * v
    t1 = (1.0 - hess_P) * common
    t2 = 0.5 * (hess_Pk - 1.0) * common
    pole_sum = t1 + 2.0 * t2

    return {
        "k_radius": r,
        "f1": f0,
        "T1": t1, "T2": t2, "T3": t2,
        "pole_sum": pole_sum,
        "pole_scale": max(abs(t1), abs(t2)),
        "cancellation_ratio": abs(pole_sum) / max(abs(t1), abs(t2)),
        "d2_exact": d2_exact,
        "d2_fd": d2_fd,
        "terms": terms,
        "hess_P": hess_P,
        "hess_Pk": hess_Pk,
        "vacuum_overlap": vac,
        "resolvent_scale": r_sc,
    }


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
