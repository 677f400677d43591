"""Truncated symmetric Fock space over a finite mode set.

Basis states are photon-occupation patterns with a cap on the total photon
number, ordered by total photon number first and lexicographically within
each sector, with the vacuum at index 0.  That ordering is deterministic and
survives grid refinement: because refined grids keep parent modes as a
prefix, every parent basis state is literally a valid state of the refined
basis.

Sector q is stored once, as an (n_q, q) int64 array of nondecreasing mode
rows; nothing else holds a state.  A row's position inside its sector is its
lexicographic rank, which `_sector_rank` computes in closed form (the
combinatorial number system; Weisse and Fehske, Lect. Notes Phys. 739
(2008)); it finds every annihilation target, every embedded parent state
and every image of a state under a mode permutation
(`FockBasis.permutation`).

Every matrix built on a basis shares one sparsity pattern, that of
D + sum_m (b_m + b*_m) with D diagonal, which `FockBasis.operator_pattern`
builds once per basis.  `FockBasis.operator` fills it with the values of
diag + sum_m c_m (b_m +- b*_m) in one gather: the field L + L^T of
L = sum_m c_m b_m, which never leaves the basis, the displacement
generator L - L^T, and the affine components in `fiberop`.
`FockBasis.top_lowering` gathers the rows of L that reach the top photon
sector, the extra term of `fiberop.assemble`.  The matrices come out as
scipy's sparse sums built them, bit for bit: zero entries dropped and
each row in ascending column order.
"""

from __future__ import annotations

import hashlib
import io
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

__all__ = ["FockBasis", "StateVector", "basis_dimension", "basis_hash", "build_basis",
           "embed", "displacement_generator", "apply_displacement"]


def _enumerate_sectors(n_modes: int, n_max: int) -> list:
    """Each photon sector's states, in lexicographic order: sector q extends
    each row of sector q - 1, in order, by every mode from its last one up."""
    sectors = [np.zeros((1, 0), dtype=np.int64)]
    for q in range(1, n_max + 1):
        prev = sectors[-1]
        low = prev[:, -1] if q > 1 else np.zeros(1, dtype=np.int64)
        count = n_modes - low
        first = np.cumsum(count) - count
        last = np.arange(count.sum()) - np.repeat(first - low, count)
        sectors.append(np.column_stack([np.repeat(prev, count, axis=0), last]))
    return sectors


def _sector_rank(rows: np.ndarray, n_modes: int) -> np.ndarray:
    """Lexicographic rank of each nondecreasing row among all rows of its
    length k over n_modes modes.

    The rows after a in that order first exceed it at some position j; from
    j on they are a nondecreasing row of length k - j over the modes above
    a_j.  Every count is below the sector size, so no int64 overflows, unlike
    a base-M key, which does once M^k reaches 2^63.
    """
    n, k = rows.shape
    if rows.size == 0:
        return np.zeros(n, dtype=np.int64)
    # above[s, t]: nondecreasing rows of length t >= 1 over s modes
    above = np.array([[math.comb(s + t - 1, t) if s else 0 for t in range(k + 1)]
                      for s in range(n_modes)], dtype=np.int64)
    later = np.zeros(n, dtype=np.int64)
    for j in range(k):
        later += above[n_modes - 1 - rows[:, j], k - j]
    return math.comb(n_modes + k - 1, k) - 1 - later


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Mask of the first entry of every run of equal modes in the
    nondecreasing rows."""
    start = np.ones(rows.shape, dtype=bool)
    start[:, 1:] = rows[:, 1:] != rows[:, :-1]
    return start


class FockBasis:
    """Occupation-number basis of the truncated Fock space.

    Attributes
    ----------
    n_modes : number of photon modes M
    n_max : total photon cap Q
    sectors : per q = 0..Q, the q-photon states as (n_q, q) int64 rows
    offsets : (Q + 2,) sector starts; sector q is offsets[q]:offsets[q + 1]
    occupation : (dim, n_modes) CSR matrix of occupation numbers n_m
    photon_count : (dim,) int64 total photon number of each state
    """

    def __init__(self, n_modes: int, n_max: int):
        if n_modes < 0 or n_max < 0:
            raise ValueError("n_modes and n_max must be nonnegative")
        self.n_modes = int(n_modes)
        self.n_max = int(n_max)
        self.sectors = _enumerate_sectors(self.n_modes, self.n_max)
        sizes = [len(a) for a in self.sectors]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.photon_count = np.repeat(np.arange(self.n_max + 1, dtype=np.int64), sizes)
        self._build_occupancy_arrays()
        self._ann_arrays = None
        self._pattern = None

    @property
    def dim(self) -> int:
        return int(self.offsets[-1])

    def _build_occupancy_arrays(self):
        # CSR rows: each state's distinct occupied modes and their counts.  A
        # run of equal modes in a sorted row is one occupied mode; its length
        # is the occupation number.  Every row starts a run, so the run after
        # a row's last one starts where that row ends.
        modes, cnts, nnz = [], [], []
        for a in self.sectors:
            start = _run_starts(a)
            modes.append(a[start])
            cnts.append(np.diff(np.append(np.flatnonzero(start), a.size)))
            nnz.append(start.sum(axis=1))
        ptr = np.concatenate([[0], np.cumsum(np.concatenate(nnz))])
        self.occupation = sp.csr_matrix(
            (np.concatenate(cnts).astype(float), np.concatenate(modes), ptr),
            shape=(self.dim, self.n_modes))

    def content_hash(self) -> str:
        return basis_hash(self.n_modes, self.n_max)

    def number_diagonal(self, f) -> np.ndarray:
        """Diagonal of sum_m f[m] * n_m over the basis."""
        return self.occupation @ np.asarray(f, dtype=float)

    def annihilation_arrays(self):
        """COO-style arrays for all b_m actions inside the basis:
        (source state, mode, target state, amplitude sqrt(n_m)), ordered by
        source state, then by mode; the states and modes as int32."""
        if self._ann_arrays is None:
            occ = self.occupation
            src = np.repeat(np.arange(self.dim, dtype=np.int32), np.diff(occ.indptr))
            tgt = [np.zeros(0, dtype=np.int64)]
            for q in range(1, self.n_max + 1):
                a = self.sectors[q]
                # drop the first photon of each run: one lowered row per
                # (state, occupied mode), found by its rank in sector q-1
                row, col = np.nonzero(_run_starts(a))
                lowered = np.empty((len(row), q - 1), dtype=np.int64)
                for j in range(q - 1):
                    lowered[:, j] = np.where(j < col, a[row, j], a[row, j + 1])
                tgt.append(self.offsets[q - 1] + _sector_rank(lowered, self.n_modes))
            self._ann_arrays = (src, occ.indices, np.concatenate(tgt).astype(np.int32),
                                np.sqrt(occ.data))
        return self._ann_arrays

    def operator_pattern(self):
        """CSR structure of D + sum_m (b_m + b*_m) on the basis, built once:
        (indptr, indices, source), int32 and read-only, since the matrices
        `operator` returns share indptr and indices.

        Row i holds the targets of the b_m lowering state i, ascending; then
        i itself; then, below the cap, the M states b*_m raises i to, in
        mode order, which is ascending too: a lower mode sorts first.
        source[p] names the value of stored entry p in the array `operator`
        gathers from: k for b_m's k-th `annihilation_arrays` entry (row
        tgt[k], column src[k]), n_ann + k for its transpose, and
        2 n_ann + i for the diagonal entry of row i.
        """
        if self._pattern is None:
            src, mode, tgt, _ = self.annihilation_arrays()
            n_ann = len(src)
            occ_ptr = self.occupation.indptr
            n_low = np.diff(occ_ptr)
            n_up = np.where(self.photon_count < self.n_max, self.n_modes, 0)
            indptr = np.zeros(self.dim + 1, dtype=np.int32)
            np.cumsum(n_low + 1 + n_up, out=indptr[1:])
            on_diag = indptr[:-1] + n_low
            # row src[k] lists its occupied modes in descending order, which
            # is ascending target order: dropping a higher mode sorts first
            k = np.arange(n_ann, dtype=np.int32)
            low = on_diag[src] - 1 - (k - occ_ptr[src])
            up = on_diag[tgt] + 1 + mode
            diag = np.arange(self.dim, dtype=np.int32)
            indices = np.empty(indptr[-1], dtype=np.int32)
            source = np.empty(indptr[-1], dtype=np.int32)
            for at, col, value in ((up, src, k), (low, tgt, n_ann + k),
                                   (on_diag, diag, 2 * n_ann + diag)):
                indices[at] = col
                source[at] = value
            for a in (indptr, indices, source):
                a.flags.writeable = False
            self._pattern = (indptr, indices, source)
        return self._pattern

    def operator(self, coeff, diag=0.0, sign=1.0) -> sp.csr_matrix:
        """diag + sum_m coeff[m] * (b_m + sign * b*_m) on the truncated basis,
        gathered into `operator_pattern` with its zero entries dropped."""
        indptr, indices, source = self.operator_pattern()
        _, mode, _, amp = self.annihilation_arrays()
        # filled in place: temporaries raised the peak RSS at photon cap 3
        n_ann = len(mode)
        values = np.empty(2 * n_ann + self.dim)
        lower = values[:n_ann]
        np.take(np.asarray(coeff, dtype=float), mode, out=lower)
        lower *= amp
        np.multiply(lower, sign, out=values[n_ann:2 * n_ann])
        values[2 * n_ann:] = diag
        return _csr_without_zeros(values[source], indices, indptr, self.dim)

    def top_lowering(self, coeff) -> sp.csr_matrix:
        """L Pi_Q on the rows where it can hold entries, with
        L = sum_m coeff[m] b_m and Pi_Q the projector onto the top sector:
        the (n_{Q-1}, dim) rows of sector Q - 1, each lowering from its M
        top-sector raisings, gathered from `operator_pattern`."""
        if self.n_max == 0:
            return sp.csr_matrix((0, self.dim))
        indptr, indices, source = self.operator_pattern()
        _, mode, _, amp = self.annihilation_arrays()
        rows = np.arange(self.offsets[-3], self.offsets[-2])
        # the M raisings close each of these rows
        at = (indptr[rows + 1] - self.n_modes)[:, None] + np.arange(self.n_modes)
        lower = np.asarray(coeff, dtype=float)[mode] * amp
        top_indptr = self.n_modes * np.arange(len(rows) + 1, dtype=np.int32)
        return _csr_without_zeros(lower[source[at].ravel()], indices[at].ravel(),
                                  top_indptr, self.dim)

    def permutation(self, perm) -> np.ndarray:
        """Index map u that the mode permutation m -> perm[m] induces on the
        basis: state i, its modes mapped and sorted, is state u[i], so the
        unitary U e_i = e_{u[i]} has (U x)[u] = x and U b_m U^T =
        b_{perm[m]}.  u maps each sector onto itself and the vacuum to 0.
        O(dim) and not cached.  A perm that is not a permutation of
        range(n_modes) raises ValueError."""
        perm = np.asarray(perm)
        if perm.shape != (self.n_modes,) or perm.dtype.kind not in "iu" \
                or not np.array_equal(np.sort(perm), np.arange(self.n_modes)):
            raise ValueError(f"not a permutation of the {self.n_modes} modes: {perm!r}")
        u = np.empty(self.dim, dtype=np.int64)
        for q, rows in enumerate(self.sectors):
            u[self.offsets[q]:self.offsets[q + 1]] = self.offsets[q] + \
                _sector_rank(np.sort(perm[rows], axis=1), self.n_modes)
        return u


def _csr_without_zeros(data, indices, indptr, n_cols) -> sp.csr_matrix:
    """CSR matrix of the given arrays without its zero entries, as scipy's
    sparse sums and products drop them; indptr and indices are shared when
    nothing is dropped."""
    keep = data != 0
    if not keep.all():
        kept = np.zeros(len(data) + 1, dtype=np.int32)
        np.cumsum(keep, out=kept[1:])
        data, indices, indptr = data[keep], indices[keep], kept[indptr]
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, n_cols))


# one checkpoint row: index, re, im
_CSV_ROW = np.dtype([("index", np.int64), ("re", float), ("im", float)])


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
        header, _, body = text.partition("\n")
        if header.rstrip("\r").split(",") != ["index", "re", "im"]:
            raise ValueError("unexpected state vector CSV header")
        # the parser skips blank lines, which would shift the line numbers
        blank = ("\n" + body).find("\n\n")
        if blank >= 0:
            line = body.count("\n", 0, blank) + 2
            raise ValueError(f"state vector CSV line {line} has 0 cells, expected 3")
        rows = np.zeros(0, dtype=_CSV_ROW)
        if body:
            try:
                rows = np.loadtxt(io.StringIO(body), dtype=_CSV_ROW, delimiter=",",
                                  comments=None, ndmin=1)
            except ValueError as exc:
                raise ValueError(f"state vector CSV does not parse: {exc}") from exc
        idx, im = rows["index"], rows["im"]
        outside = np.flatnonzero((idx < 0) | (idx >= basis.dim))
        if len(outside):
            raise ValueError(f"state vector CSV index {idx[outside[0]]} outside "
                             f"0..{basis.dim - 1}")
        repeated = np.ones(len(idx), dtype=bool)
        repeated[np.unique(idx, return_index=True)[1]] = False
        if repeated.any():
            raise ValueError(f"state vector CSV repeats index {idx[repeated][0]}")
        imaginary = np.flatnonzero(im != 0.0)
        if len(imaginary):
            row = imaginary[0]
            raise ValueError(f"state vector CSV line {row + 2} has im = "
                             f"{float(im[row])!r}; state vectors are real")
        if len(idx) < basis.dim:
            seen = np.zeros(basis.dim, dtype=bool)
            seen[idx] = True
            missing = np.flatnonzero(~seen)
            raise ValueError(f"state vector CSV lacks {len(missing)} of "
                             f"{basis.dim} indices, first {missing[0]}")
        re = np.empty(basis.dim)
        re[idx] = rows["re"]
        return StateVector(re, basis)


def basis_dimension(n_modes: int, n_max: int) -> int:
    """Number of states with at most n_max photons in n_modes modes, known
    before enumerating them (stars and bars): C(n_modes + n_max, n_max)."""
    return math.comb(n_modes + n_max, n_max)


def basis_hash(n_modes: int, n_max: int) -> str:
    """Content hash of the basis over n_modes modes with at most n_max
    photons, known before enumerating it: the states follow from the two."""
    return hashlib.sha256(f"fock:{n_modes}:{n_max}".encode()).hexdigest()[:16]


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
    # parent modes are a prefix of the child's, so each parent row is a child
    # row of the same sector, found by its rank there
    for q, rows in enumerate(parent.sectors):
        out[child.offsets[q] + _sector_rank(rows, child.n_modes)] = \
            v[parent.offsets[q]:parent.offsets[q + 1]]
    return out


def displacement_generator(basis: FockBasis, delta) -> sp.csr_matrix:
    """Antisymmetric generator sum_m delta_m (b_m - b*_m) on the truncated
    basis.  Exactly antisymmetric by construction, so its exponential is
    orthogonal and preserves norms to rounding."""
    delta = np.asarray(delta, dtype=float)
    if len(delta) != basis.n_modes:
        raise ValueError("delta length does not match mode count")
    return basis.operator(delta, sign=-1.0)


def apply_displacement(basis: FockBasis, delta, v: np.ndarray) -> np.ndarray:
    """exp(sum_m delta_m (b_m - b*_m)) applied to v (norm-preserving)."""
    delta = np.asarray(delta, dtype=float)
    if not np.any(delta):
        return np.asarray(v).copy()
    G = displacement_generator(basis, delta)
    return expm_multiply(G, np.asarray(v))
