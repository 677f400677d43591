"""Truncated symmetric Fock space over a finite mode set.

Basis states are photon-occupation patterns with a cap on the total photon
number.  States are stored as sorted tuples of occupied mode indices, ordered
by total photon number first and lexicographically within each sector, with
the vacuum at index 0.  That ordering is deterministic and survives grid
refinement: because refined grids keep parent modes as a prefix, every parent
basis state is literally a valid state of the refined basis.

`FockBasis.lowering(c)` is the single builder of L = sum_m c_m b_m, which
never leaves the basis.  The field L + L^T, the displacement generator
L - L^T and the top-sector term in `fiberop.assemble` are all built from it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
from collections import Counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

__all__ = ["FockBasis", "StateVector", "basis_dimension", "build_basis", "embed",
           "displacement_generator", "apply_displacement"]


def _enumerate_states(n_modes: int, n_max: int):
    states = [()]
    for q in range(1, n_max + 1):
        states.extend(itertools.combinations_with_replacement(range(n_modes), q))
    return states


class FockBasis:
    """Occupation-number basis of the truncated Fock space.

    Attributes
    ----------
    n_modes : number of photon modes M
    n_max : total photon cap Q
    states : list of sorted mode tuples, vacuum first
    index : dict mapping state tuple -> position
    occupation : (dim, n_modes) CSR matrix of occupation numbers n_m
    """

    def __init__(self, n_modes: int, n_max: int):
        if n_modes < 0 or n_max < 0:
            raise ValueError("n_modes and n_max must be nonnegative")
        self.n_modes = int(n_modes)
        self.n_max = int(n_max)
        self.states = _enumerate_states(self.n_modes, self.n_max)
        self.index = {s: i for i, s in enumerate(self.states)}
        self._build_occupancy_arrays()
        self._ann_arrays = None

    @property
    def dim(self) -> int:
        return len(self.states)

    def _build_occupancy_arrays(self):
        # CSR rows: each state's distinct occupied modes and their counts
        ptr = [0]
        modes, cnts = [], []
        for s in self.states:
            c = Counter(s)
            for m in sorted(c):
                modes.append(m)
                cnts.append(c[m])
            ptr.append(len(modes))
        self.occupation = sp.csr_matrix(
            (np.array(cnts, dtype=float), np.array(modes, dtype=np.int64),
             np.array(ptr, dtype=np.int64)),
            shape=(self.dim, self.n_modes))
        self.photon_count = np.fromiter((len(s) for s in self.states),
                                        dtype=np.int64, count=self.dim)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"fock:{self.n_modes}:{self.n_max}".encode())
        return h.hexdigest()[:16]

    def number_diagonal(self, f) -> np.ndarray:
        """Diagonal of sum_m f[m] * n_m over the basis."""
        return self.occupation @ np.asarray(f, dtype=float)

    def annihilation_arrays(self):
        """COO-style arrays for all b_m actions inside the basis:
        (source state, mode, target state, amplitude sqrt(n_m))."""
        if self._ann_arrays is None:
            occ = self.occupation
            src = np.repeat(np.arange(self.dim, dtype=np.int64), np.diff(occ.indptr))
            tgt = np.empty(len(src), dtype=np.int64)
            for e, (i, m) in enumerate(zip(src.tolist(), occ.indices.tolist())):
                lowered = list(self.states[i])
                lowered.remove(m)
                tgt[e] = self.index[tuple(lowered)]
            self._ann_arrays = (src, occ.indices, tgt, np.sqrt(occ.data))
        return self._ann_arrays

    def lowering(self, coeff) -> sp.csr_matrix:
        """sum_m coeff[m] * b_m on the truncated basis, which it never leaves."""
        src, mode, tgt, amp = self.annihilation_arrays()
        vals = np.asarray(coeff, dtype=float)[mode] * amp
        return sp.csr_matrix((vals, (tgt, src)), shape=(self.dim, self.dim))

    def field_matrix(self, coeff) -> sp.csr_matrix:
        """sum_m coeff[m] * (b_m + b*_m) on the truncated basis."""
        lower = self.lowering(coeff)
        return lower + lower.T


class StateVector:
    """Coefficient vector over a FockBasis, serializable to CSV."""

    def __init__(self, data: np.ndarray, basis: FockBasis):
        data = np.asarray(data)
        if data.shape != (basis.dim,):
            raise ValueError(f"vector shape {data.shape} does not match basis dim {basis.dim}")
        self.data = data
        self.basis = basis

    def to_csv(self, path=None) -> str:
        # the cells never need quoting, so plain rows match csv.writer's bytes;
        # a complex vector fails the safe cast instead of losing its im part
        values = self.data.astype(float, casting="safe").tolist()
        text = "index,re,im\n" + "".join(f"{i},{r!r},0.0\n"
                                         for i, r in enumerate(values))
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @staticmethod
    def from_csv(text: str, basis: FockBasis) -> "StateVector":
        """Parse `to_csv` output; every index 0 .. dim-1 must appear exactly
        once and every `im` cell must be zero, otherwise ValueError names the
        defect."""
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["index", "re", "im"]:
            raise ValueError("unexpected state vector CSV header")
        re = np.zeros(basis.dim)
        seen = np.zeros(basis.dim, dtype=bool)
        for line, row in enumerate(rows[1:], start=2):
            if len(row) != 3:
                raise ValueError(f"state vector CSV line {line} has {len(row)} "
                                 "cells, expected 3")
            i = int(row[0])
            if not 0 <= i < basis.dim:
                raise ValueError(f"state vector CSV index {i} outside "
                                 f"0..{basis.dim - 1}")
            if seen[i]:
                raise ValueError(f"state vector CSV repeats index {i}")
            seen[i] = True
            re[i] = float(row[1])
            if float(row[2]) != 0.0:
                raise ValueError(f"state vector CSV line {line} has im = "
                                 f"{row[2]}; state vectors are real")
        if not seen.all():
            missing = np.flatnonzero(~seen)
            raise ValueError(f"state vector CSV lacks {len(missing)} of "
                             f"{basis.dim} indices, first {missing[0]}")
        return StateVector(re, basis)


def basis_dimension(n_modes: int, n_max: int) -> int:
    """Number of states with at most n_max photons in n_modes modes, known
    before enumerating them (stars and bars): C(n_modes + n_max, n_max)."""
    return math.comb(n_modes + n_max, n_max)


def build_basis(n_modes: int, n_max: int, dim_cap: int = 2_000_000) -> FockBasis:
    """Enumerate the truncated basis; refuses to exceed dim_cap states."""
    bound = basis_dimension(n_modes, n_max)
    if bound > dim_cap:
        raise ValueError(f"basis dimension bound {bound} exceeds cap {dim_cap} "
                         f"(M={n_modes}, Q={n_max})")
    return FockBasis(n_modes, n_max)


def embed(v: np.ndarray, parent: FockBasis, child: FockBasis) -> np.ndarray:
    """Isometric embedding of a parent-basis vector into a child basis whose
    mode list extends the parent's (parent modes as a prefix)."""
    if child.n_modes < parent.n_modes or child.n_max < parent.n_max:
        raise ValueError("child basis does not contain the parent basis")
    v = np.asarray(v)
    out = np.zeros(child.dim, dtype=v.dtype)
    cindex = child.index
    for i, s in enumerate(parent.states):
        out[cindex[s]] = v[i]
    return out


def displacement_generator(basis: FockBasis, delta) -> sp.csr_matrix:
    """Antisymmetric generator sum_m delta_m (b_m - b*_m) on the truncated
    basis.  Exactly antisymmetric by construction, so its exponential is
    orthogonal and preserves norms to rounding."""
    delta = np.asarray(delta, dtype=float)
    if len(delta) != basis.n_modes:
        raise ValueError("delta length does not match mode count")
    lower = basis.lowering(delta)
    return (lower - lower.T).tocsr()


def apply_displacement(basis: FockBasis, delta, v: np.ndarray) -> np.ndarray:
    """exp(sum_m delta_m (b_m - b*_m)) applied to v (norm-preserving)."""
    delta = np.asarray(delta, dtype=float)
    if basis.n_modes == 0 or not np.any(delta):
        return np.asarray(v).copy()
    G = displacement_generator(basis, delta)
    return expm_multiply(G, np.asarray(v))
