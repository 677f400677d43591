"""Analytic momentum derivatives of dressed fiber ground states.

All formulas are Rayleigh-Schrodinger expressions for the eigenvalue family
P -> compressed W0 H(P) W0* at a frozen dressing W0.  For that family the
first Hamiltonian derivative is gradE0_i - Gamma_i, the second is the
identity, and higher ones vanish, so every reduced-resolvent formula below
is an exact derivative of the truncated eigenvalue -- finite differences of
the same family must reproduce them to quadrature order.

Small gradient defects gamma_i = <phi, Gamma_i phi> (nonzero only through
truncation) are kept in the formulas rather than assumed away.

The DressedScaleState owns the first-order data: Gamma_i (`state.gamma`),
Gamma_i phi (`state.gamma_phi`) and d_i phi = R0 Gamma_i phi
(`state.phi_derivs`, three reduced solves at `state.tol`).  Along a unit
direction n everything follows by linearity of R0: G = n . Gamma,
G phi = gamma_phi n and u = R0 G phi = phi_derivs n.  The third derivative
then needs no further solve (Wigner's 2n+1 rule); the second eigenvector
derivative and the two higher chain norms take two solves each.
"""

from __future__ import annotations

import numpy as np

from .dressing import DressedScaleState
from .spectral import solve_reduced_resolvent

__all__ = [
    "grad_E_dressed",
    "phi_first_derivatives",
    "hessian_E",
    "directional_hessian",
    "phi_second_derivative",
    "third_derivative_E",
    "scaling_norms",
    "radial_direction",
]


def grad_E_dressed(state: DressedScaleState) -> np.ndarray:
    """Exact gradient of the truncated dressed eigenvalue:
    gradE0_i - <phi, Gamma_i phi>."""
    return state.grad_e - state.phi @ state.gamma_phi


def phi_first_derivatives(state: DressedScaleState) -> np.ndarray:
    """(dim, 3) array of eigenvector derivatives d(phi)/dP_i = R0 Gamma_i phi
    in the norm-preserving gauge <phi, d(phi)> = 0."""
    return state.phi_derivs


def hessian_E(state: DressedScaleState) -> np.ndarray:
    """3x3 matrix d2 E / dP_i dP_j = delta_ij - <Gamma_i phi, R0 Gamma_j phi>
    - <Gamma_j phi, R0 Gamma_i phi>."""
    S = state.gamma_phi.T @ state.phi_derivs
    return np.eye(3) - S - S.T


def directional_hessian(state: DressedScaleState, direction) -> float:
    """n . Hess E . n for a unit direction n; equals 1 - 2 <G phi, R0 G phi>
    with G = n . Gamma, hence never exceeds 1 (R0 is PSD off the ground state)."""
    n = _unit(state, direction)
    return float(n @ hessian_E(state) @ n)


def phi_second_derivative(state: DressedScaleState, i: int, j: int) -> np.ndarray:
    """d2 phi / dP_i dP_j:

        R0 (Gamma_i - gamma_i) d_j phi + R0 (Gamma_j - gamma_j) d_i phi
        - <d_i phi, d_j phi> phi.
    """
    G = state.gamma
    gam = state.phi @ state.gamma_phi
    U = state.phi_derivs
    t1 = solve_reduced_resolvent(state.Hw, state.energy_w, state.phi,
                                 G[i] @ U[:, j] - gam[i] * U[:, j], state.tol)
    t2 = solve_reduced_resolvent(state.Hw, state.energy_w, state.phi,
                                 G[j] @ U[:, i] - gam[j] * U[:, i], state.tol)
    return t1 + t2 - float(U[:, i] @ U[:, j]) * state.phi


def radial_direction(state: DressedScaleState) -> np.ndarray:
    """Unit vector along P (falling back to grad E, then x-hat, at P = 0)."""
    for cand in (state.params.P_vec, state.grad_e):
        norm = np.linalg.norm(cand)
        if norm > 1e-14:
            return np.asarray(cand, dtype=float) / norm
    return np.array([1.0, 0.0, 0.0])


def _unit(state: DressedScaleState, direction) -> np.ndarray:
    """`direction` normalised, or the radial direction when it is None."""
    if direction is None:
        return radial_direction(state)
    n = np.asarray(direction, dtype=float)
    return n / np.linalg.norm(n)


def _along(state: DressedScaleState, n: np.ndarray):
    """(G, G phi, u = R0 G phi) for G = n . Gamma, by linearity."""
    G = n[0] * state.gamma[0] + n[1] * state.gamma[1] + n[2] * state.gamma[2]
    return G, state.gamma_phi @ n, state.phi_derivs @ n


def third_derivative_E(state: DressedScaleState, direction=None) -> float:
    """d3 E / dt3 along P(t) = P + t n:

        6 (gamma ||u||^2 - <u, G u>),

    with G = n . Gamma, gamma = <phi, G phi>, u = R0 G phi.  This is
    Wigner's 2n+1 rule: the first-order vector u fixes the third-order
    energy, so no solve beyond the state's three columns is needed."""
    G, Gphi, u = _along(state, _unit(state, direction))
    gamma = float(state.phi @ Gphi)
    return 6.0 * (gamma * float(u @ u) - float(u @ (G @ u)))


def scaling_norms(state: DressedScaleState, direction=None) -> dict:
    """Resolvent-chain norms controlling the derivative formulas along n:

        n0 = ||R0 G phi||      (first eigenvector derivative)
        n1 = ||R0 Q G R0 G phi||  (second-order chain)
        n2 = ||(R0)^2 G phi||     (resolvent-squared chain)
    """
    G, _, u = _along(state, _unit(state, direction))
    chain = solve_reduced_resolvent(state.Hw, state.energy_w, state.phi,
                                    G @ u, state.tol)
    square = solve_reduced_resolvent(state.Hw, state.energy_w, state.phi, u,
                                     state.tol)
    return {"n0": float(np.linalg.norm(u)),
            "n1": float(np.linalg.norm(chain)),
            "n2": float(np.linalg.norm(square))}
