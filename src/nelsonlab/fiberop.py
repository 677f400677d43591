"""Coefficient algebra for fiber Hamiltonians and their coherent dressings.

Operators are kept in the structured family

    H = |A|^2 / 2 + sum_m d_m n_m + sum_m g_m (b_m + b*_m) + e,
    A_j = w_j + sum_m K[m,j] n_m + sum_m C[m,j] (b_m + b*_m),

which is closed under the mode displacement b_m -> b_m + h_m (real h).  The
displacement is applied exactly at coefficient level -- never by matrix
exponentiation -- so conjugation by a Weyl operator is free of truncation
error.  Matrices are assembled as the exact compression of the full operator
to the truncated basis.  For |A|^2 that is the compression of the square, not
the square of the compression, which keeps variational monotonicity intact.
It never leaves the basis: only creations on the top photon sector escape the
cap, and there b_m b*_m' = delta_mm' + b*_m' b_m folds them back (see
`assemble`).  So the square is a Gram matrix of matrices inside the basis,
and an operator whose A has a field part is kept as those factors
(`FiberMatrix`), never multiplied out.  Every matrix is gathered into the
basis's one sparsity pattern: the field parts and affine components by
`FockBasis.operator`, the top-sector rows by `FockBasis.top_lowering`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis
from .grid import ModelParams, MomentumGrid, form_factor

__all__ = [
    "FiberOperator",
    "VectorFiberOperator",
    "FiberMatrix",
    "nelson_hamiltonian",
    "weyl_coefficients",
    "alpha_factors",
    "displace",
    "gamma_operator",
    "transformed_hamiltonian",
    "transformed_hamiltonian_routes",
    "canonical_terms",
    "canonical_distance",
    "assemble",
    "assemble_vector_component",
    "pf_diagonals",
    "momentum_shift_diagonal",
]

# largest relative deviation in canonical coefficients that the two
# construction routes of the dressed Hamiltonian may show
ROUTE_ABORT_TOL = 1e-12


@dataclass(frozen=True)
class FiberOperator:
    """H = |A|^2/2 + sum d_m n_m + sum g_m x_m + e with affine vector A."""

    w: np.ndarray   # (3,)
    K: np.ndarray   # (M, 3)
    C: np.ndarray   # (M, 3)
    d: np.ndarray   # (M,)
    g: np.ndarray   # (M,)
    e: float

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float).reshape(3))
        M = np.asarray(self.K, dtype=float).reshape(-1, 3).shape[0]
        for name, shape in (("K", (M, 3)), ("C", (M, 3)), ("d", (M,)), ("g", (M,))):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(shape))
        object.__setattr__(self, "e", float(self.e))

    @property
    def n_modes(self) -> int:
        return self.K.shape[0]


@dataclass(frozen=True)
class VectorFiberOperator:
    """Three affine components G_j = w_j + sum K[m,j] n_m + sum C[m,j] x_m."""

    w: np.ndarray   # (3,)
    K: np.ndarray   # (M, 3)
    C: np.ndarray   # (M, 3)

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float).reshape(3))
        M = np.asarray(self.K, dtype=float).reshape(-1, 3).shape[0]
        object.__setattr__(self, "K", np.asarray(self.K, dtype=float).reshape(M, 3))
        object.__setattr__(self, "C", np.asarray(self.C, dtype=float).reshape(M, 3))

    def displaced(self, h) -> "VectorFiberOperator":
        h = np.asarray(h, dtype=float)
        w = self.w + self.K.T @ (h * h) + 2.0 * (self.C.T @ h)
        return VectorFiberOperator(w, self.K, self.C + self.K * h[:, None])


def nelson_hamiltonian(params: ModelParams, grid: MomentumGrid) -> FiberOperator:
    """Fiber Hamiltonian (P - P_f)^2/2 + H_f + field coupling on the grid.

    Discrete mode operators absorb sqrt(w_m): the coupling coefficient is
    g_m = v(k_m) sqrt(w_m) with v the continuum form factor.
    """
    g = form_factor(grid.k, params) * np.sqrt(grid.w)
    return FiberOperator(
        w=params.P_vec,
        K=-grid.k,
        C=np.zeros_like(grid.k),
        d=grid.r.copy(),
        g=g,
        e=0.0,
    )


def alpha_factors(grid: MomentumGrid, gradE) -> np.ndarray:
    """Direction factors alpha_m = 1 - k_hat_m . gradE (must stay positive)."""
    gradE = np.asarray(gradE, dtype=float)
    alpha = 1.0 - (grid.k @ gradE) / grid.r
    if np.any(alpha <= 0.0):
        raise ValueError(f"alpha factor not positive (min {alpha.min():.3g}); "
                         "|gradE| too large for coherent dressing")
    return alpha


def weyl_coefficients(params: ModelParams, grid: MomentumGrid, gradE) -> np.ndarray:
    """Displacement amplitudes h_m = -g_m / (|k_m| alpha_m) of the dressing."""
    alpha = alpha_factors(grid, gradE)
    g = form_factor(grid.k, params) * np.sqrt(grid.w)
    return -g / (grid.r * alpha)


def displace(op: FiberOperator, h) -> FiberOperator:
    """Exact conjugation coefficients under b_m -> b_m + h_m.

    |A|^2 stays a symbolic square (only A's coefficients move); the number
    term feeds the field coefficient (g += d h) and the scalar picks up
    sum_m (d_m h_m^2 + 2 g_m h_m).
    """
    h = np.asarray(h, dtype=float).reshape(op.n_modes)
    A = VectorFiberOperator(op.w, op.K, op.C).displaced(h)
    g = op.g + op.d * h
    e = op.e + float(np.sum(op.d * h * h + 2.0 * op.g * h))
    return FiberOperator(A.w, A.K, A.C, op.d, g, e)


def gamma_operator(params: ModelParams, grid: MomentumGrid, gradE) -> VectorFiberOperator:
    """Dressed momentum-defect operator Gamma.

    Built from the exact shift rule applied to P_f - P plus the constant
    gradE, i.e. the conjugation identity  W (P_f - P) W* = Gamma - gradE
    read backwards.  Its ground-state expectation vanishing is a measured
    property, not an input.
    """
    gradE = np.asarray(gradE, dtype=float)
    h = weyl_coefficients(params, grid, gradE)
    base = VectorFiberOperator(-params.P_vec, grid.k.copy(), np.zeros_like(grid.k))
    gam = base.displaced(h)
    return VectorFiberOperator(gam.w + gradE, gam.K, gam.C)


def transformed_hamiltonian_routes(params: ModelParams, grid: MomentumGrid, gradE):
    """The dressed Hamiltonian W H W* computed two independent ways.

    Route one displaces the bare Hamiltonian coefficient-wise.  Route two
    assembles the closed form |Gamma|^2/2 + sum alpha_m |k_m| n_m + c with

        c = |P|^2/2 - |P - gradE|^2/2 - sum_m g_m^2 / (|k_m| alpha_m).

    Returns (displaced_route, closed_route).
    """
    gradE = np.asarray(gradE, dtype=float)
    ham = nelson_hamiltonian(params, grid)
    h = weyl_coefficients(params, grid, gradE)
    route_displaced = displace(ham, h)

    gam = gamma_operator(params, grid, gradE)
    alpha = alpha_factors(grid, gradE)
    d = alpha * grid.r
    self_energy = float(np.sum(ham.g**2 / (grid.r * alpha)))
    P = params.P_vec
    c = 0.5 * float(P @ P) - 0.5 * float((P - gradE) @ (P - gradE)) - self_energy
    route_closed = FiberOperator(gam.w, gam.K, gam.C, d, np.zeros(grid.n_modes), c)
    return route_displaced, route_closed


def transformed_hamiltonian(params: ModelParams, grid: MomentumGrid,
                            gradE) -> FiberOperator:
    """Dressed Hamiltonian with the mandatory dual-route self-check.

    Both construction routes are compared in canonical (gauge-invariant)
    coefficients; a relative deviation beyond ROUTE_ABORT_TOL raises.  The closed
    form is returned.
    """
    route_displaced, route_closed = transformed_hamiltonian_routes(params, grid, gradE)
    dev = canonical_distance(route_displaced, route_closed)
    if dev > ROUTE_ABORT_TOL:
        raise ArithmeticError(
            f"transformed-Hamiltonian routes disagree: displaced vs closed form "
            f"deviate by {dev:.3e} (> {ROUTE_ABORT_TOL:.1e}) in canonical coefficients")
    return route_closed


def canonical_terms(op: FiberOperator) -> dict:
    """Gauge-invariant coefficient blocks of the operator.

    The family representation has a gauge freedom (shifting A by a constant
    against d, g, e and flipping component signs of A).  The expanded blocks

        const  = e + |w|^2/2              n_lin[m] = d_m + w . K_m
        x_lin[m] = g_m + w . C_m          nn = K K^T / 2
        xx = C C^T / 2                    nx[m, m'] = K_m . C_m'

    determine the operator uniquely; two representations agree iff all blocks
    agree.  (nn/xx are coefficients of symmetrized n_m n_m' / x_m x_m'
    products, nx of the anticommutator {n_m, x_m'}/2 pairs.)
    """
    return {
        "const": np.array([op.e + 0.5 * float(op.w @ op.w)]),
        "n_lin": op.d + op.K @ op.w,
        "x_lin": op.g + op.C @ op.w,
        "nn": 0.5 * (op.K @ op.K.T),
        "xx": 0.5 * (op.C @ op.C.T),
        "nx": op.K @ op.C.T,
    }


def canonical_distance(op1: FiberOperator, op2: FiberOperator) -> float:
    """Largest relative deviation between canonical blocks of two operators."""
    t1, t2 = canonical_terms(op1), canonical_terms(op2)
    scale = 0.0
    for key in t1:
        scale = max(scale, float(np.max(np.abs(t1[key]), initial=0.0)),
                    float(np.max(np.abs(t2[key]), initial=0.0)))
    if scale == 0.0:
        return 0.0
    dev = 0.0
    for key in t1:
        dev = max(dev, float(np.max(np.abs(t1[key] - t2[key]), initial=0.0)))
    return dev / scale


# ---------------------------------------------------------------------------
# assembly to sparse matrices


class FiberMatrix:
    """Symmetric H = F + G + S^T S / 2 kept as its factors.

    F is the diagonal, as a vector: the number, constant and top-sector
    terms and the squares of the components without field part.  G is the
    field part sum_m g_m (b_m + b*_m) as CSR, None when g = 0, as for every
    dressed operator (the closed route sets g = 0).  S is the row stack of
    the matrices whose squares `assemble` would otherwise multiply out,
    without its empty rows: the L_j Pi_Q blocks fill only the rows of
    sector Q - 1, so at dim 2,701 S keeps 8,319 of 16,206 rows.  S^T / 2 is
    stored too, as CSR, because a gathering product is faster than a
    scattering one; the 1/2 is folded into its entries, which changes no
    bit of a product, since scaling by 1/2 commutes with rounding.  The
    Gram product is never formed: `H @ x` is F x + G x + (S^T / 2)(S x),
    which streams far fewer entries than the product matrix.  `nnz` counts
    the nonzero entries of F and the stored ones of G, S and S^T.  Only
    `toarray`, for the dense eigensolves up to `spectral.DENSE_CUTOFF`,
    multiplies H out.
    """

    def __init__(self, F: np.ndarray, S: sp.csr_matrix, G: sp.csr_matrix | None = None):
        self.F = F
        self.G = G
        self.S = S
        self.half_St = S.T.tocsr()
        self.half_St.data *= 0.5
        self.shape = (len(F), len(F))
        self.nnz = int(np.count_nonzero(F) + 2 * S.nnz + (0 if G is None else G.nnz))
        self._diagonal = F + 0.5 * np.bincount(S.indices, weights=S.data * S.data,
                                               minlength=len(F))

    def __matmul__(self, x):
        # F x is added into the product, which scipy returns C-ordered, so the
        # result's memory layout never follows x's
        out = self.half_St @ (self.S @ x)
        out += (self.F if np.ndim(x) == 1 else self.F[:, None]) * x
        return out if self.G is None else out + self.G @ x

    def diagonal(self) -> np.ndarray:
        return self._diagonal.copy()

    def row_abs_bound(self) -> np.ndarray:
        """|F| + |G| 1 + |S|^T (|S| 1) / 2, entrywise at least the row sums
        of |H|."""
        absS = abs(self.S)
        bound = np.abs(self.F) + 0.5 * (absS.T @ np.asarray(absS.sum(axis=1)).ravel())
        return bound if self.G is None else bound + np.asarray(abs(self.G).sum(axis=1)).ravel()

    def toarray(self) -> np.ndarray:
        out = (self.half_St @ self.S).toarray()
        out[np.diag_indices(len(self.F))] += self.F
        return out if self.G is None else out + self.G.toarray()


def assemble(op: FiberOperator, basis: FockBasis) -> sp.csr_matrix | FiberMatrix:
    """Exact compression of the operator to the truncated basis.

    With P the projector onto the basis, |A|^2 is compressed as P A_j^2 P,
    not as (P A_j P)^2; this is what makes enlarging the basis variational.
    Only b*_m acting on the top photon sector leaves the basis (the total
    cap is the only cap), and b_m b*_m' = delta_mm' + b*_m' b_m there, so

        P A_j^2 P = (P A_j P)^2 + Pi_Q (|C_j|^2 + L_j^T L_j) Pi_Q

    with L_j = sum_m C[m,j] b_m, which stays inside the basis, and Pi_Q the
    projector onto the top sector.  Both squares on the right are Gram
    matrices of matrices inside the basis, so the compression is exactly
    F + G + S^T S / 2 with S the row stack of the P A_j P and the nonempty
    rows of L_j Pi_Q (`FockBasis.top_lowering`) over the components with a
    field part, G the field term and F the diagonal rest: the number and
    constant terms, the |C_j|^2 on the top sector, and the squares of the
    components without field part, which are diagonal in occupation.
    Those factors come back as a `FiberMatrix`; an operator whose A has no
    field part is returned as one CSR matrix, F + G.
    """
    if op.n_modes != basis.n_modes:
        raise ValueError("operator and basis mode counts differ")
    diag = np.full(basis.dim, op.e, dtype=float) + basis.number_diagonal(op.d)
    vop = VectorFiberOperator(op.w, op.K, op.C)
    top = basis.photon_count == basis.n_max
    components, lowerings = [], []
    for j in range(3):
        c = op.C[:, j]
        if np.any(c):
            components.append(assemble_vector_component(vop, j, basis))
            lowerings.append(basis.top_lowering(c))
            diag[top] += 0.5 * float(c @ c)
        else:
            a = basis.number_diagonal(op.K[:, j]) + op.w[j]
            diag += 0.5 * a * a
    if not components:
        return basis.operator(op.g, diag)
    blocks = components + lowerings
    counts = np.concatenate([np.diff(b.indptr) for b in blocks])
    indptr = np.zeros(np.count_nonzero(counts) + 1, dtype=np.int32)
    np.cumsum(counts[counts > 0], out=indptr[1:])
    S = sp.csr_matrix((np.concatenate([b.data for b in blocks]),
                       np.concatenate([b.indices for b in blocks]), indptr),
                      shape=(len(indptr) - 1, basis.dim))
    return FiberMatrix(diag, S, basis.operator(op.g) if np.any(op.g) else None)


def assemble_vector_component(vop: VectorFiberOperator, j: int, basis: FockBasis) -> sp.csr_matrix:
    """Sparse matrix of one affine component on the truncated basis (exact
    compression; creations above the cap have no matrix element here)."""
    diag = np.full(basis.dim, vop.w[j], dtype=float) + basis.number_diagonal(vop.K[:, j])
    return basis.operator(vop.C[:, j], diag)


def pf_diagonals(basis: FockBasis, grid: MomentumGrid) -> np.ndarray:
    """(dim, 3) array of the diagonal photon-momentum operator P_f."""
    return np.column_stack([basis.number_diagonal(grid.k[:, j]) for j in range(3)])


def momentum_shift_diagonal(basis: FockBasis, grid: MomentumGrid, P, P_new) -> np.ndarray:
    """Diagonal of H(P_new) - H(P) for the bare Hamiltonian:
    (|P_new|^2 - |P|^2)/2 - (P_new - P) . P_f.  Only the diagonal moves."""
    P = np.asarray(P, dtype=float)
    P_new = np.asarray(P_new, dtype=float)
    dP = P_new - P
    out = np.full(basis.dim, 0.5 * float(P_new @ P_new - P @ P))
    if np.any(dP):
        out -= basis.number_diagonal(grid.k @ dP)
    return out
