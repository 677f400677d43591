"""Coherent (Weyl) dressing of infrared-cutoff fiber ground states.

The pipeline solves the bare fiber Hamiltonian, reads the energy gradient
off the ground state (Hellmann-Feynman: grad E = <psi, (P - P_f) psi>),
forms the mode displacements h_m = -g_m / (|k_m| alpha_m), and re-solves in
the dressed frame W H W*.  Every analytically-forced identity along the way
(dual construction routes, W psi vs the dressed ground state, the vanishing
of <phi, Gamma phi>) is measured and reported, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fiberop import (
    FiberMatrix,
    alpha_factors,
    assemble,
    assemble_vector_component,
    gamma_operator,
    momentum_shift_diagonal,
    nelson_hamiltonian,
    pf_diagonals,
    transformed_hamiltonian,
    weyl_coefficients,
)
from .fock import FockBasis, apply_displacement
from .grid import ModelParams, MomentumGrid, point_group_permutations
from .spectral import SchurSplit, ground_state, solve_reduced_resolvent

__all__ = [
    "DressedScaleState",
    "dressed_ground_state",
    "hellmann_feynman_gradient",
    "soft_photon_block",
    "dispersion_probe",
]

# one-photon energies within SOFT_TIE of the minimum, relative, tie: on the
# sweep's grids two modes do at every scale, and the next is 3.3 % higher
SOFT_TIE = 1e-9
SEED_WEIGHT = 1e-3   # norm of the seeded component of each soft-photon row


@dataclass
class DressedScaleState:
    """Bare and dressed ground-state data for one cutoff, plus diagnostics.

    `energy`/`psi` solve the bare fiber Hamiltonian, `energy_w`/`phi` the
    dressed one; under truncation the two energies are independent
    variational values whose mismatch is itself a convergence diagnostic.
    `phi1` is the dressed first excited state (None on one state); with
    `phi`, each transported by one Weyl displacement, it is the two-row
    LOBPCG start block of an operator that displacement maps onto Hw (the
    intermediate Hamiltonian of `multiscale`).  Checkpoints do not store
    it.

    `split` is the bare matrix, held only as its `SchurSplit` (the CSR
    matrix is `split.H`, since the bare A has no field part), built once
    per cutoff for the bare solve and the dispersion probes; `Hw` is the
    dressed one, kept factored as a `FiberMatrix` (a CSR matrix only when
    nothing is dressed: no modes or zero coupling).

    The state owns the first-order data every momentum derivative is built
    from, each computed once on first use: the compressed momentum defect
    Gamma_j at `grad_e` (`gamma`), the columns Gamma_j phi (`gamma_phi`) and
    the eigenvector derivatives R0 Gamma_j phi (`phi_derivs`, three reduced
    solves at `tol`).  R0 is linear, so derivatives along any direction
    follow from these three columns without further solves.
    """

    params: ModelParams
    grid: MomentumGrid
    basis: FockBasis
    energy: float
    psi: np.ndarray
    gap: float
    grad_e: np.ndarray
    h: np.ndarray
    energy_w: float
    phi: np.ndarray
    gap_w: float
    phi1: np.ndarray | None = field(repr=False)
    split: SchurSplit = field(repr=False)
    Hw: FiberMatrix | sp.csr_matrix = field(repr=False)  # spectral reads both alike
    tol: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def grad_norm(self) -> float:
        return float(np.linalg.norm(self.grad_e))

    @property
    def alpha_min(self) -> float:
        """Worst-case direction factor 1 - k_hat . grad E over the grid."""
        if self.grid.n_modes == 0:
            return 1.0
        return float(np.min(alpha_factors(self.grid, self.grad_e)))

    def record(self) -> dict:
        """The numbers `ground_state.json` and a ledger row report: both
        energies and gaps, grad E and its norm, alpha_min and ||h||."""
        return {"energy": self.energy, "energy_w": self.energy_w,
                "gap": self.gap, "gap_w": self.gap_w,
                "grad_e": [float(g) for g in self.grad_e],
                "grad_norm": self.grad_norm, "alpha_min": self.alpha_min,
                "h_norm": float(np.linalg.norm(self.h))}

    @cached_property
    def gamma(self) -> list:
        """The three compressed components Gamma_j of the dressed momentum
        defect at `grad_e`."""
        gam = gamma_operator(self.params, self.grid, self.grad_e)
        return [assemble_vector_component(gam, j, self.basis) for j in range(3)]

    @cached_property
    def gamma_phi(self) -> np.ndarray:
        """(dim, 3) array with columns Gamma_j phi."""
        return np.column_stack([G @ self.phi for G in self.gamma])

    @cached_property
    def phi_derivs(self) -> np.ndarray:
        """(dim, 3) array with columns d(phi)/dP_j = R0 Gamma_j phi, in the
        norm-preserving gauge <phi, d(phi)> = 0."""
        B = self.gamma_phi
        return np.column_stack([
            solve_reduced_resolvent(self.Hw, self.energy_w, self.phi, B[:, j],
                                    self.tol)
            for j in range(3)
        ])


def hellmann_feynman_gradient(params: ModelParams, grid: MomentumGrid,
                              basis: FockBasis, psi: np.ndarray) -> np.ndarray:
    """grad E(P) = <psi, (P - P_f) psi> for the bare fiber Hamiltonian."""
    pf = pf_diagonals(basis, grid)
    dens = np.abs(psi) ** 2
    return params.P_vec - pf.T @ dens


def soft_photon_block(basis: FockBasis, grid: MomentumGrid, grad_e,
                      psi: np.ndarray) -> np.ndarray:
    """Start rows for the two lowest eigenpairs of a fiber Hamiltonian
    whose ground state is close to psi: psi and b*_m psi for the softest
    modes m, those whose one-photon energy |k_m| (1 - k_hat_m . grad_e)
    ties the minimum to within SOFT_TIE relative.

    The gap above an infrared-cutoff ground state is one soft photon, so
    the two lowest eigenvectors lie close to that span.  The span touches
    only the symmetry sectors of its rows, so each unit b*_m psi row gets a
    fixed seeded component of norm SEED_WEIGHT, which reaches every sector.
    The psi row is left as given: a converged psi then starts converged,
    which halves the matvecs of the photon-cap-3 bare pair at dim 67,525
    (80 against 157)."""
    one_photon = grid.r * alpha_factors(grid, grad_e)
    soft = np.flatnonzero(one_photon <= one_photon.min() * (1.0 + SOFT_TIE))
    src, mode, tgt, amp = basis.annihilation_arrays()
    rows = np.zeros((1 + len(soft), basis.dim))
    rows[0] = psi
    for row, m in zip(rows[1:], soft):
        # b*_m is the transpose of b_m, which takes src to tgt
        on = mode == m
        row[src[on]] = amp[on] * psi[tgt[on]]
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    seeded = np.random.default_rng(0).standard_normal((len(soft), basis.dim))
    rows[1:] += SEED_WEIGHT * seeded / np.linalg.norm(seeded, axis=1)[:, None]
    return rows


def dressed_ground_state(params: ModelParams, grid: MomentumGrid, basis: FockBasis,
                         tol: float = 1e-10) -> DressedScaleState:
    """Run the full bare-solve / dress / re-solve pipeline at one cutoff.

    Where a pair is solved by LOBPCG (`spectral.ground_state`), its start
    block is `soft_photon_block`, built only then: for the dressed Hw
    around W psi, the bare ground state moved into the dressed frame, which
    the dressing defect reads anyway; for a bare H without the
    Feshbach-Schur path (photon cap 3) around the bare ground vector of a
    one-eigenpair solve, with its Hellmann-Feynman gradient.

    Raises ValueError if the measured gradient is too large for the
    displacement to exist (some alpha_m <= 0), and ArithmeticError if the two
    construction routes for the dressed Hamiltonian disagree.
    """
    split = SchurSplit(assemble(nelson_hamiltonian(params, grid), basis))

    def bare_start():
        psi0 = ground_state(split, tol, gap=False).vector
        grad0 = hellmann_feynman_gradient(params, grid, basis, psi0)
        return soft_photon_block(basis, grid, grad0, psi0)

    rec = ground_state(split, tol, start=bare_start)
    grad_e = hellmann_feynman_gradient(params, grid, basis, rec.vector)

    h = weyl_coefficients(params, grid, grad_e)
    Hw = assemble(transformed_hamiltonian(params, grid, grad_e), basis)
    w_psi = apply_displacement(basis, h, rec.vector)
    rec_w = ground_state(Hw, tol, start=lambda: soft_photon_block(basis, grid,
                                                                  grad_e, w_psi))
    overlap = float(w_psi @ rec_w.vector)
    dressing_defect = float(np.linalg.norm(np.copysign(1.0, overlap) * w_psi
                                           - rec_w.vector))
    state = DressedScaleState(params, grid, basis, rec.energy, rec.vector,
                              rec.gap, grad_e, h, rec_w.energy, rec_w.vector,
                              rec_w.gap, rec_w.excited, split, Hw, tol)
    gdef = state.phi @ state.gamma_phi
    state.diagnostics = {
        "energy_mismatch": abs(rec.energy - rec_w.energy),
        "dressing_defect": dressing_defect,
        "dressing_overlap": abs(overlap),
        "grad_defect": gdef,
        "grad_defect_norm": float(np.linalg.norm(gdef)),
        "residual": rec.residual,
        "residual_w": rec_w.residual,
        "method": rec.method,
        "method_w": rec_w.method,
    }
    return state


def dispersion_probe(params: ModelParams, grid: MomentumGrid, basis: FockBasis,
                     split: SchurSplit, energy: float,
                     max_probes: int = 48, tol: float = 1e-10):
    """Largest energy drop per unit photon momentum over grid-mode probes.

    Re-solves the bare Hamiltonian H (ground energy `energy`), given as its
    unshifted `split`, such as `DressedScaleState.split`, at P - k_m (only
    the diagonal moves) and returns (deficit, ratios, probe_indices) with

        ratio_m = (E(P) - E(P - k_m)) / |k_m|,    deficit = max_m ratio_m.

    deficit < 1 certifies E(P - k) + |k| > E(P) on the probe set; small
    deficit means a steep photon-emission threshold.

    Each probe reads one number, so it asks `ground_state` for the lowest
    eigenvalue alone (gap=False).  The one split serves every probe: a
    probe's operator is that split shifted by the probe's diagonal
    (`SchurSplit.shifted`, O(dim)), so no probe forms a matrix.  Up to the
    dense cutoff the probe is one dense solve.  Past it, where the split's
    head fits the cutoff (photon cap 2), the Feshbach-Schur solve finds the
    lowest eigenvalue in every symmetry sector at once; it starts from no
    vector.  Otherwise LOBPCG runs from the vacuum-weighted start vector,
    and that solve cannot miss the bottom when coupling > 0: conjugated by
    (-1)^N the probe Hamiltonian has every off-diagonal entry
    -g_m sqrt(n) <= 0 and is irreducible, so by Perron-Frobenius its ground
    state is non-degenerate with a non-zero vacuum component.  Let G be the
    mode permutations that commute with the probe Hamiltonian: the
    vacuum-weighted start and the G-invariant diagonal preconditioner keep
    every iterate in the symmetric sector, which holds the ground state, so
    no mirror symmetry of the grid can hide it.  At coupling 0 the matrix
    is diagonal, and `ground_state` reads its lowest entry without an
    eigensolve.

    A symmetry R of the grid with R P = P (`point_group_permutations`) maps
    H(P - k_m) onto H(P - R k_m) by permuting modes, so the ratio is constant
    on each orbit of the point group.  Only the first probed mode of an orbit
    is solved; the other probed modes of the orbit copy its ratio.
    """
    n = grid.n_modes
    step = max(1, int(np.ceil(n / max_probes)))
    idx = np.arange(0, n, step)
    P = params.P_vec
    perms = point_group_permutations(grid, P)
    known = {}  # mode -> ratio, filled one orbit at a time
    ratios = np.empty(len(idx))
    for i, m in enumerate(idx):
        if m not in known:
            shift = momentum_shift_diagonal(basis, grid, P, P - grid.k[m])
            e_m = ground_state(split.shifted(shift), tol, gap=False).energy
            ratio = (energy - e_m) / grid.r[m]
            known.update((int(perm[m]), ratio) for perm in perms)
        ratios[i] = known[m]
    return float(np.max(ratios, initial=-np.inf)), ratios, idx
