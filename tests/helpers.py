"""Shared brute-force oracles for the test suite.

The dense product-space construction here is deliberately independent of the
package's assembly path: single-mode ladder matrices combined with Kronecker
products, operators multiplied as dense matrices, then compressed to the
total-photon-capped subspace.  Agreement with the package validates the
normal-ordering and the top-sector compression.
"""

import itertools

import numpy as np
import scipy.sparse as sp

from nelsonlab.fock import FockBasis
from nelsonlab.grid import GridSpec, MomentumGrid


def basis_states(n_modes: int, n_max: int) -> list:
    """Every basis state as a sorted tuple of occupied modes, in the
    documented order: photon number first, lexicographic within a sector
    (the order `combinations_with_replacement` emits), vacuum first."""
    return [s for q in range(n_max + 1)
            for s in itertools.combinations_with_replacement(range(n_modes), q)]


def state_index(n_modes: int, n_max: int) -> dict:
    """Position of each state tuple in `basis_states(n_modes, n_max)`."""
    return {s: i for i, s in enumerate(basis_states(n_modes, n_max))}


def reference_lowering(basis: FockBasis, coeff) -> sp.csr_matrix:
    """sum_m coeff[m] b_m from annihilation_arrays, built as scipy builds a
    COO matrix: the reference for the gathers of `FockBasis.operator` and
    `FockBasis.top_lowering`.  Modes with coeff[m] = 0 stay as explicit
    zeros, as they did in the CSR matrices the package built this way."""
    src, mode, tgt, amp = basis.annihilation_arrays()
    return sp.csr_matrix((np.asarray(coeff, dtype=float)[mode] * amp, (tgt, src)),
                         shape=(basis.dim, basis.dim))


def lowering_matrix(basis: FockBasis, m: int) -> sp.csr_matrix:
    """Sparse matrix of b_m on the truncated basis, from the package's
    annihilation_arrays (exact: lowering never leaves the space).  Its
    transpose is the truncated raising operator."""
    return reference_lowering(basis, np.eye(basis.n_modes)[m])


def single_mode_ladder(dim):
    """Dense annihilation matrix on span{|0>, ..., |dim-1>}."""
    b = np.zeros((dim, dim))
    for n in range(1, dim):
        b[n - 1, n] = np.sqrt(n)
    return b


def product_ladders(n_modes, per_mode_dim):
    """Dense annihilation matrices for each mode on the full product space."""
    eye = np.eye(per_mode_dim)
    b1 = single_mode_ladder(per_mode_dim)
    ops = []
    for m in range(n_modes):
        factors = [b1 if j == m else eye for j in range(n_modes)]
        full = factors[0]
        for f in factors[1:]:
            full = np.kron(full, f)
        ops.append(full)
    return ops


def product_state_index(occ, per_mode_dim):
    idx = 0
    for n in occ:
        idx = idx * per_mode_dim + n
    return idx


def compression_map(basis: FockBasis, per_mode_dim):
    """Rows of the product space corresponding to the truncated basis states."""
    rows = []
    for s in basis_states(basis.n_modes, basis.n_max):
        occ = [0] * basis.n_modes
        for m in s:
            occ[m] += 1
        if max(occ, default=0) >= per_mode_dim:
            raise ValueError("per_mode_dim too small for basis states")
        rows.append(product_state_index(occ, per_mode_dim))
    return np.array(rows, dtype=int)


def dense_fiber_operator(op, n_modes, per_mode_dim):
    """Dense matrix of a FiberOperator on the uncapped product space."""
    ladders = product_ladders(n_modes, per_mode_dim)
    dim = per_mode_dim**n_modes
    I = np.eye(dim)
    num = [b.T @ b for b in ladders]
    x = [b + b.T for b in ladders]
    H = op.e * I
    for m in range(n_modes):
        H = H + op.d[m] * num[m] + op.g[m] * x[m]
    for j in range(3):
        A = op.w[j] * I
        for m in range(n_modes):
            A = A + op.K[m, j] * num[m] + op.C[m, j] * x[m]
        H = H + 0.5 * (A @ A)
    return H


def dense_compressed(op, basis: FockBasis, per_mode_dim=None):
    """Compression of the dense product-space operator to the truncated basis.

    per_mode_dim defaults to enough headroom that no product in |A|^2 is
    clipped before compression (two creations above any reachable state).
    """
    if per_mode_dim is None:
        per_mode_dim = basis.n_max + 3
    H = dense_fiber_operator(op, basis.n_modes, per_mode_dim)
    rows = compression_map(basis, per_mode_dim)
    return H[np.ix_(rows, rows)]


def toy_grid(k_list, w_list, sigma=0.1, kappa=1.0):
    """Hand-built MomentumGrid for small oracle instances."""
    k = np.asarray(k_list, dtype=float).reshape(-1, 3)
    w = np.asarray(w_list, dtype=float)
    shell = np.arange(len(w), dtype=int)
    bounds = [(sigma, kappa)] * len(w)
    return MomentumGrid(k, w, shell, bounds, sigma, kappa, GridSpec(1, 1, 1))


def random_momentum_grid(rng, n_modes, sigma=0.1, kappa=1.0):
    """Random small grid with positive weights, radii inside [sigma, kappa]."""
    u = rng.normal(size=(n_modes, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    r = sigma + (kappa - sigma) * rng.uniform(0.05, 0.95, size=n_modes)
    k = u * r[:, None]
    w = rng.uniform(0.02, 0.4, size=n_modes)
    return toy_grid(k, w, sigma=sigma, kappa=kappa)


def all_occupations(basis: FockBasis):
    """Occupation vectors (length n_modes) for every basis state."""
    out = np.zeros((basis.dim, basis.n_modes), dtype=int)
    for i, s in enumerate(basis_states(basis.n_modes, basis.n_max)):
        for m in s:
            out[i, m] += 1
    return out


def dense_vector_component(vop, j, n_modes, per_mode_dim):
    ladders = product_ladders(n_modes, per_mode_dim)
    dim = per_mode_dim**n_modes
    A = vop.w[j] * np.eye(dim)
    for m in range(n_modes):
        A = A + vop.K[m, j] * (ladders[m].T @ ladders[m]) \
              + vop.C[m, j] * (ladders[m] + ladders[m].T)
    return A


def assert_same_csr(got, want):
    """Equal shape, and indptr, indices and data with the same dtypes and
    bits."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
