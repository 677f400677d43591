"""Ground states, reduced resolvents, and shifted solves for symmetric
sparse matrices and factored operators.

An operator is a scipy sparse matrix, a `SchurSplit` of one, or a
`fiberop.FiberMatrix`, the dressed Hamiltonians kept as F + S^T S / 2.
All kinds are read alike, through four members: `shape`, `@`,
`diagonal()` and `toarray()` (dense eigensolves, only up to DENSE_CUTOFF).
Only `_row_abs_sums` tells a sparse matrix from the others: it takes its
row sums of |H|, and the row bound `row_abs_bound()` of the others.

Eigensolves compute only what the caller reads (see ground_state): the
lowest eigenpair, and with the gap also the second one.  The branches, in
order:
1. A diagonal operator, such as H at coupling 0 or any 1 x 1 one, needs no
   eigensolve at any dimension: when the row sums of |H| (read once, for
   the residual budget) equal |diag(H)|, the ground vector is the basis
   vector of the lowest diagonal entry, with exact zeros elsewhere, and the
   method is "diagonal".
2. Up to DENSE_CUTOFF, a dense solve for those one or two eigenpairs.
3. A sparse operator whose diagonal tail (`SchurSplit`) leaves a head of
   at most DENSE_CUTOFF states, the bare H at photon cap 2, takes the
   Feshbach-Schur map of that tail ("feshbach", see _feshbach): Newton on
   each level of a dense head-sized matrix, in every symmetry sector at
   once.  At dim 13,366 (head 163) two pairs take 22-25 ms, split
   included, against 1.6-1.7 s for ARPACK, with 3-5 evaluations of the
   map per level.
4. Otherwise block LOBPCG ("lobpcg", see _lobpcg), the one iterative
   eigensolver: for one eigenpair from the vacuum-weighted vector alone,
   for two from a start block of rows that the caller passes as `start`.
DENSE_CUTOFF = 300 is the measured crossover of the dense solve and LOBPCG
on the sweep's operators (Q=2, one BLAS thread).  For the dressed and
intermediate pairs the dense solve, O(dim^3) with the materialization,
takes 1.7-2.6 ms at the scale-1 dim 190 against 3.4-6.0 ms for the block,
and 33-44 ms at dim 703 against 3.5-10 ms.  For one eigenpair LOBPCG and the dense solve tie at dim
190 (1.7-1.9 ms against 2.0-2.2 ms per bare probe matrix), so the one
threshold serves both k.  Every method's pairs then take one path: phase
fixed, made contiguous, and the true residual checked.

LOBPCG preconditions each row by |diag(H) - theta|^{-1}, floored at 1e-3,
with theta that row's Ritz value, and stops when the true residuals
||H x - theta x|| of the wanted rows are at most 1e-6 times the residual
budget, i.e. 1e-3 tol max(1, ||H||_inf).  The stop is that tight because
the ground vector itself is read (the pull-through chains of
`wavefunctions` start from it): at dim 9,139 a stop at tol ||H||_inf
leaves it 7e-10 from a tol=1e-14 ARPACK vector, this one 5e-13.

The start is deterministic, so repeated runs reproduce bit-identical
results.  The caller knows the physics of its operator and passes the
start block, or a function that returns it, called only when LOBPCG runs:
the soft-photon block of `dressing.soft_photon_block` for the dressed and
the photon-cap-3 bare pairs, and the transported dressed pair for the
intermediate operator of `multiscale`.  On the dressed Hw of the sweep
that block takes 52-64 matvecs at dims 703-2,701 and 222-226 at dim
13,366, where ARPACK from the vacuum-weighted vector took 95-231 and
1,949.  Without a block, two eigenpairs start from the vacuum-weighted
vector and one fixed seeded row.  With the gap, the record also carries
the second eigenvector (`excited`), so that a caller can start the next
solve from both.

Every linear solve is a MINRES solve on a matvec at any dimension and
checks its true residual: scipy's `minres` for the reduced resolvent, and
for shifted solves `_block_minres`, the same recurrences run on a block of
right-hand sides at once.  A resolvent sup-norm on a circle around the
lowest eigenvalue is one reduced-resolvent solve (see contour_sup_norm).

A shifted solve first eliminates the diagonal tail of H - z exactly, the
Feshbach-Schur step of the paper's perturbation theory: `SchurSplit`
reads, once per operator, the smallest index n with H[n:, n:] diagonal
(the top photon sector of the bare Fock H, 8,436 of 9,139 states at
photon cap 3), and MINRES runs on the Schur complement over the first n
states only.  Its residual is still checked on the full system, column by
column.  Tail rows with a pivot exactly 0 in any column stay unknowns of
the reduced system, so no row is divided by 0.  One call solves a block of
right-hand sides, each with its own shift: one sparse product then serves
every column, which is what makes the pull-through levels of
`wavefunctions` cheap, while every column's result is the one it gets
alone.  The split's `nnz` counts what one product with the
Schur complement streams, not the entries of H.

MINRES is preconditioned by the diagonal M^{-1} = |diag(H) - z|^{-1} on
the rows it keeps, with exact zeros of diag(H) - z replaced by 1.
Absolute values of nonzero numbers make M positive definite even where
H - z is indefinite, as MINRES requires.  In the Fock basis the photon
energy sum_m alpha_m |k_m| n_m is diagonal; its quanta range from the
infrared cutoff sigma to the ultraviolet one, and that spread sets the
condition number of the resolvents.  The diagonal scaling removes it, so
iteration counts stay nearly flat as sigma shrinks.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
# eigsh is bound, though unused, because the benchmark's tracer rebinds it
from scipy.sparse.linalg import LinearOperator, eigsh, minres  # noqa: F401

__all__ = [
    "GroundStateRecord",
    "ground_state",
    "solve_reduced_resolvent",
    "SchurSplit",
    "solve_shifted",
    "contour_sup_norm",
]

DENSE_CUTOFF = 300
LOBPCG_MAXITER = 1000
FESHBACH_MAXITER = 50


@dataclass
class GroundStateRecord:
    """Lowest eigenpair of a symmetric matrix plus solver diagnostics."""

    energy: float
    vector: np.ndarray
    gap: float
    residual: float
    method: str
    excited: np.ndarray | None = None  # second eigenvector; with the gap only


def _fix_phase(v: np.ndarray) -> np.ndarray:
    anchor = v[0] if abs(v[0]) > 1e-10 else v[np.argmax(np.abs(v))]
    return -v if anchor < 0 else v


def _row_abs_sums(H) -> np.ndarray:
    """Row sums of |H|; for a split or a factored operator, the bound
    `row_abs_bound`, which is never below them."""
    if sp.issparse(H):
        return np.asarray(np.abs(H).sum(axis=1)).ravel()
    return H.row_abs_bound()


def _residual_budget(row_abs_sums: np.ndarray, tol: float) -> float:
    """Largest true eigen-residual `ground_state` accepts:
    1e3 tol max(1, ||H||_inf), with ||H||_inf read from `_row_abs_sums`."""
    return 1e3 * tol * max(1.0, float(np.max(row_abs_sums)))


def _rows_times(H, V: np.ndarray) -> np.ndarray:
    """The rows of (H V^T)^T for a (r, dim) block V, one matvec per row: at
    dim 13,366 three matvecs with the dressed H take 2.2 ms, one product
    with the (dim, 3) block 2.6 ms."""
    return np.array([H @ v for v in V])


def _row_norms(V: np.ndarray) -> np.ndarray:
    return np.array([np.linalg.norm(v) for v in V])


def _ritz(SH: np.ndarray, b: int) -> np.ndarray | None:
    """Coefficients (m, b) of the b lowest Ritz vectors of H on the span of
    the m rows S of SH = [S; H S] (rows of H S^T below them), through the
    Cholesky factor of the Gram matrix S S^T; None when that Gram is not
    positive definite.  Both small matrices, S S^T and S (H S)^T, come from
    one product with SH: at dim 9,139 and m = 3 it takes 19 us, the two
    products apart 85 us."""
    m = len(SH) // 2
    G = SH[:m] @ SH.T
    try:
        L = np.linalg.cholesky(G[:, :m])
    except np.linalg.LinAlgError:
        return None
    Li = np.linalg.inv(L)
    return Li.T @ np.linalg.eigh(Li @ G[:, m:] @ Li.T)[1][:, :b]


def _lobpcg(H, X: np.ndarray, diag: np.ndarray, stop: float, k: int):
    """The k lowest eigenpairs (theta, X) of H, X as rows, by block LOBPCG
    (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517) over the b >= k rows of
    the start block X; raises ArithmeticError when LOBPCG_MAXITER steps
    leave a wanted residual over `stop`, or when the start block, or X and
    W, are not of full rank.

    A block of more rows first takes the Ritz vectors of its own span.  Each
    step is a Rayleigh-Ritz on [X, W, P] through the Cholesky factor of
    their Gram matrix, keeping the b lowest Ritz vectors: row i of W is the
    residual r_i = H x_i - theta_i x_i preconditioned by
    max(|diag(H) - theta_i|, 1e-3)^{-1}, and P the previous step's update.
    Soft locking: W and P keep only the rows whose residual is still above
    `stop`, while every row of X stays in the Rayleigh-Ritz; P also drops
    the rows of Ritz vectors that did not move, as when the block splits
    into symmetry sectors exactly.  When the Gram is not positive definite,
    P is dropped.  H X and H P are carried along as combinations, so each
    step makes one matvec per row of W; when the k wanted residuals meet
    `stop`, they are recomputed from a fresh H X, and only those true
    residuals end the iteration.  With one row this is block size 1, one
    matvec per step, from the vacuum-weighted start of `ground_state`."""
    b = len(X)
    HX, fresh = _rows_times(H, X), True
    if b > 1:
        C = _ritz(np.vstack([X, HX]), b)
        if C is None:
            raise ArithmeticError("the start block is not of full rank; "
                                  "method=lobpcg")
        X, HX = C.T @ X, C.T @ HX
    P = HP = None
    for _ in range(LOBPCG_MAXITER):
        theta = np.array([x @ hx for x, hx in zip(X, HX)])
        R = HX - theta[:, None] * X
        norms = _row_norms(R)
        if np.all(norms[:k] <= stop):
            if fresh:
                return theta[:k], X[:k]
            HX[:k], fresh = _rows_times(H, X[:k]), True
            continue
        active = norms > stop
        if not active.all():
            R, theta = R[active], theta[active]
        W = R / np.maximum(np.abs(diag - theta[:, None]), 1e-3)
        W /= _row_norms(W)[:, None]
        S, HS = [X, W], [HX, _rows_times(H, W)]
        if P is not None:
            use = active & moved
            S, HS = S + [P[use]], HS + [HP[use]]
        SH = np.vstack(S + HS)
        m = len(SH) // 2
        C = _ritz(SH, b)
        if C is None:
            m = b + len(W)
            SH = np.vstack(S[:2] + HS[:2])
            C = _ritz(SH, b)
        if C is None:
            raise ArithmeticError("the block [X, W] is not of full rank; "
                                  "method=lobpcg")
        S, HS = SH[:m], SH[m:]
        X, HX = C.T @ S, C.T @ HS
        P, HP = C[b:].T @ S[b:], C[b:].T @ HS[b:]
        # a Ritz vector that did not move has no direction to carry
        scale, size = _row_norms(X)[:, None], _row_norms(P)[:, None]
        moved = size[:, 0] > 0.0
        size[~moved] = 1.0
        X, HX, P, HP, fresh = X / scale, HX / scale, P / size, HP / size, False
    raise ArithmeticError(f"LOBPCG did not converge in {LOBPCG_MAXITER} "
                          "steps; method=lobpcg")


def _feshbach(split: "SchurSplit", k: int, stop: float):
    """The k lowest eigenpairs of a split H with a diagonal tail D, as roots
    of its Feshbach-Schur map (Bach, Froehlich and Sigal, Adv. Math. 137
    (1998) 299); raises ArithmeticError when a level has no root below
    min D or Newton runs out of steps.

    For E below min D, H - E has as many negative eigenvalues as
    M(E) - E, with M(E) = K - B^T (D - E)^{-1} B on the head (Haynsworth's
    inertia formula, D - E being positive).  f_j(E) = lambda_j(M(E)) - E
    has the derivative -1 - ||(D - E)^{-1} B u_j||^2, u_j the unit
    eigenvector, so it falls strictly, and its one root below min D is H's
    j-th eigenvalue, with the eigenvector (u_j, -(D - E)^{-1} B u_j).  M(E)
    never exceeds K, so f_j(lambda_j(K)) <= 0: Newton starts there, which
    must lie below min D, and keeps a bracket of the root, bisecting when a
    step leaves it, so every iterate stays below min D.  It stops when
    |f_j| is at most `stop`, which bounds the eigen-residual too.  With
    psi = (u_j, -(D - E)^{-1} B u_j), H psi = (lambda_j u_j, E psi_tail),
    so the Newton update E + f_j / (1 + ||(D - E)^{-1} B u_j||^2) is the
    Rayleigh quotient of psi: the level returned, with an error of order
    f_j^2 where E itself may be off by f_j (3e-13 at dim 10,585).  M(E) is
    formed densely from `split.pairs`, the products of B's entries within
    each tail row, through one bincount per step."""
    n, D, B = split.split, split.diag[split.split:], split.B
    K, at, products, rows = split.pairs
    K = K.copy()
    np.fill_diagonal(K, split.diag[:n])
    floor = float(np.min(D))
    starts = eigh(K, eigvals_only=True, subset_by_index=[0, k - 1], driver="evr")
    vals, vecs = np.empty(k), np.empty((split.shape[0], k))
    for j in range(k):
        E, lo, hi = float(starts[j]), -np.inf, floor
        if not E < floor:
            raise ArithmeticError(f"head level {j} {E:.6e} is not below min D "
                                  f"{floor:.6e}: no bracket for the root of "
                                  f"level {j}; method=feshbach")
        for _ in range(FESHBACH_MAXITER):
            g = 1.0 / (D - E)
            M = K - np.bincount(at, products * g[rows], n * n).reshape(n, n)
            lam, u = eigh(M, subset_by_index=[j, j], driver="evr")
            u = u[:, 0]
            t = g * (B @ u)
            f = float(lam[0]) - E
            step = E + f / (1.0 + t @ t)
            if abs(f) <= stop:
                break
            if f < 0.0:
                hi = E
            else:
                lo = E
            E = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            raise ArithmeticError(f"Newton did not reach the root of level {j} "
                                  f"in {FESHBACH_MAXITER} steps; method=feshbach")
        vals[j] = step
        vecs[:n, j], vecs[n:, j] = u, -t
    return vals, vecs / np.linalg.norm(vecs, axis=0)


def _start_block(dim: int, k: int, start) -> np.ndarray:
    """The LOBPCG start block as unit rows: the caller's `start`, or the
    vacuum-weighted vector, with k - 1 fixed seeded rows below it."""
    if start is None:
        X = np.full((k, dim), 1e-3)
        X[0, 0] = 1.0
        if k > 1:
            X[1:] = np.random.default_rng(0).standard_normal((k - 1, dim))
    else:
        X = np.array(start, dtype=float, order="C", ndmin=2)
    if X.shape[0] < k or X.shape[1] != dim:
        raise ValueError(f"start block of shape {X.shape} for {k} eigenpairs "
                         f"of dim {dim}")
    return X / _row_norms(X)[:, None]


def ground_state(H, tol: float = 1e-10, gap: bool = True,
                 start: np.ndarray | Callable[[], np.ndarray] | None = None
                 ) -> GroundStateRecord:
    """Lowest eigenpair, with the spectral gap and the second eigenvector
    unless gap=False.

    `gap` sets only the number k of eigenpairs, 2 or 1; without the gap,
    `gap` is nan and `excited` None, and a one-state H has gap inf.  A
    diagonal H, 1 x 1 included, returns its k lowest basis vectors (method
    "diagonal").  Otherwise a dense solve for the k lowest eigenpairs up to
    DENSE_CUTOFF.  Above it, a `SchurSplit`, or a sparse H split here only
    when the split will serve, whose head n satisfies k <= n <= DENSE_CUTOFF
    takes the Feshbach-Schur map of its diagonal tail (`_feshbach`, at most
    FESHBACH_MAXITER Newton steps per level); any other H takes block
    LOBPCG (`_lobpcg`, at most LOBPCG_MAXITER steps) for the k lowest
    eigenpairs.  LOBPCG starts from `start`, rows of shape (b, dim) with
    b >= k, or a function without arguments that returns them, called only
    on this path (the dense and Feshbach-Schur solves ignore `start`).
    Without it, the block is a fixed vacuum-weighted vector, with one fixed
    seeded row below it for k=2.  A 1-D start is one row.
    It raises ValueError for a start block of fewer than k rows or of the
    wrong width, and ArithmeticError ending in `method=<name>`, retrying
    nothing, when LOBPCG runs out of steps, its start block or its block
    [X, W] is not of full rank, or it misses the bottom of the spectrum,
    when a level has no Feshbach-Schur root below the tail or Newton runs
    out of steps, or, whatever the method, when the true residual
    ||H psi - E psi|| exceeds its budget.  Any other solver error
    propagates.  Both returned vectors are contiguous and normalized, with
    a positive vacuum component (positive largest component if the vacuum
    one vanishes).
    """
    dim = H.shape[0]
    k = min(2 if gap else 1, dim)
    split = H if isinstance(H, SchurSplit) else None
    if (split is None and sp.issparse(H) and dim > DENSE_CUTOFF
            and k <= _tail_start(H)[0] <= DENSE_CUTOFF):
        split = SchurSplit(H)
    row_sums = _row_abs_sums(H)
    budget = _residual_budget(row_sums, tol)
    diag = H.diagonal()
    if np.array_equal(row_sums, np.abs(diag)):
        # no off-diagonal entry moves a row sum: the eigenvectors are the
        # basis vectors of the lowest diagonal entries, lowest index first
        lowest = np.argsort(diag, kind="stable")[:k]
        vals = diag[lowest]
        vecs = np.zeros((dim, k))
        vecs[lowest, np.arange(k)] = 1.0
        method = "diagonal"
    elif dim <= DENSE_CUTOFF:
        vals, vecs = eigh(H.toarray(), subset_by_index=[0, k - 1], driver="evr")
        method = "dense"
    elif split is not None and k <= split.split <= DENSE_CUTOFF:
        method = "feshbach"
        vals, vecs = _feshbach(split, k, 1e-6 * budget)
    else:
        method = "lobpcg"
        X = _start_block(dim, k, start() if callable(start) else start)
        vals, X = _lobpcg(H, X, diag, 1e-6 * budget, k)
        vecs = X.T
        # Every diagonal entry is a Rayleigh quotient, so a lowest value above
        # the smallest one means the iteration missed the bottom.
        if np.min(vals) > np.min(diag) + budget:
            raise ArithmeticError(f"lowest value {np.min(vals):.6e} above min "
                                  f"diag(H) {np.min(diag):.6e}: missed the "
                                  f"bottom of the spectrum; method={method}")
        order = np.argsort(vals)
        vals = vals[order]
        vecs = vecs[:, order] / [np.linalg.norm(vecs[:, j]) for j in order]
    vectors = [np.ascontiguousarray(_fix_phase(vecs[:, j])) for j in range(k)]
    psi = vectors[0]
    resid = float(np.linalg.norm(H @ psi - vals[0] * psi))
    if resid > budget:
        raise ArithmeticError(f"eigensolver residual {resid:.3e} exceeds "
                              f"budget ({budget:.3e}); method={method}")
    if k == 2:
        gap_value, excited = float(vals[1] - vals[0]), vectors[1]
    else:
        gap_value, excited = (np.inf if gap else np.nan), None
    return GroundStateRecord(float(vals[0]), psi, gap_value, resid, method, excited)


def _project_out(v: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return v - psi * (psi @ v)


def _jacobi(shifted_diagonal: np.ndarray) -> np.ndarray:
    """|d|^{-1} entrywise, with exact zeros of d replaced by 1: the inverse
    of a positive definite diagonal for any real d."""
    d = np.abs(shifted_diagonal)
    d[d == 0.0] = 1.0
    return 1.0 / d


def _minres_solve(matvec, precond, rhs: np.ndarray, tol: float) -> np.ndarray:
    """x with matvec(x) ~ rhs by MINRES preconditioned by `precond`, which
    applies M^{-1} and must be symmetric positive definite on the space the
    iterates live in; the caller checks the residual (`_check_residual`)."""
    dim = len(rhs)
    op = LinearOperator((dim, dim), matvec=matvec, dtype=float)
    M = LinearOperator((dim, dim), matvec=precond, dtype=float)
    return minres(op, rhs, M=M, rtol=max(1e-13, tol / 100.0), maxiter=40 * dim)[0]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the matching rows of two C-ordered (c, m) arrays,
    each summed as a contiguous row, the way numpy sums a 1-D vector, so a
    row's value does not depend on the rows beside it (a reduction over
    axis 0 of the (m, c) transpose sums differently at c = 1)."""
    return (a * b).sum(axis=1)


def _block_minres(apply, inv: np.ndarray, rhs: np.ndarray, tol: float) -> np.ndarray:
    """X with A_j X[:, j] ~ rhs[:, j] for every column j of the (m, b)
    block, by MINRES (Paige and Saunders, SIAM J. Numer. Anal. 12 (1975)
    617) preconditioned by the positive diagonals M_j^{-1} = inv[:, j], run
    on all columns at once: the recurrences and stop tests of scipy's
    `minres` with one scalar per column, rtol = max(1e-13, tol/100) and at
    most 40 m steps.

    apply maps a C-ordered (m, b) block to its products with the symmetric
    A_j, column by column.  A column leaves the recurrences once its own
    tests stop it; apply then sees zeros in its place, so it always takes
    the full width and keeps no per-column state to cut down.  Inside, each
    system is a contiguous row, so that the per-system scalars broadcast
    along rows and every sum runs per row (`_row_dots`): a column's result
    is bit for bit the one it gets when solved alone.  The caller checks
    the residuals."""
    eps = np.finfo(float).eps
    m, width = rhs.shape
    rtol, maxiter = max(1e-13, tol / 100.0), 40 * m
    X = np.zeros((width, m))
    r1, inv = rhs.T.copy(), inv.T.copy()
    y = inv * r1
    beta1 = _row_dots(r1, y)
    keep = beta1 > 0.0  # a zero column has the solution 0
    live = np.flatnonzero(keep)
    r1, y, inv = r1[keep], y[keep], inv[keep]
    beta1 = np.sqrt(beta1[keep])
    r2, x, w, w2 = r1, np.zeros_like(r1), np.zeros_like(r1), np.zeros_like(r1)
    zero = np.zeros(len(live))
    oldb, beta, dbar, epsln, phibar = zero, beta1, zero, zero, beta1
    tnorm2, gmax, gmin, cs, sn = zero, zero, zero + np.inf, zero - 1.0, zero
    itn = 0
    while live.size:
        itn += 1
        v = (1.0 / beta)[:, None] * y
        if live.size == width:
            y = apply(np.ascontiguousarray(v.T)).T.copy()
        else:
            full = np.zeros((m, width))
            full[:, live] = v.T
            y = apply(full)[:, live].T.copy()
        if itn >= 2:
            y -= (beta / oldb)[:, None] * r1
        alfa = _row_dots(v, y)
        y -= (alfa / beta)[:, None] * r2
        r1, r2 = r2, y
        y = inv * r2
        oldb, beta = beta, np.sqrt(_row_dots(r2, y))
        tnorm2 = tnorm2 + (alfa**2 + oldb**2 + beta**2)
        stop = (beta / beta1 <= 10 * eps) if itn == 1 else np.zeros(len(live), bool)
        # the plane rotation that eliminates the subdiagonal beta
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.sqrt(gbar**2 + dbar**2)
        gamma = np.maximum(np.sqrt(gbar**2 + beta**2), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps[:, None] * w1 - delta[:, None] * w2) * (1.0 / gamma)[:, None]
        x = x + phi[:, None] * w
        gmax, gmin = np.maximum(gmax, gamma), np.minimum(gmin, gamma)
        # scipy's stop tests; a 0/0 reads nan and fails them as its inf does
        Anorm = np.sqrt(tnorm2)
        ynorm = np.sqrt(_row_dots(x, x))
        with np.errstate(divide="ignore", invalid="ignore"):
            test1 = phibar / (Anorm * ynorm)
            test2 = root / Anorm
        stop |= ((test1 <= rtol) | (test2 <= rtol) | (1.0 + test1 <= 1.0)
                 | (1.0 + test2 <= 1.0) | (gmax / gmin >= 0.1 / eps)
                 | (Anorm * ynorm * eps >= beta1) | (itn >= maxiter))
        if np.any(stop):
            X[live[stop]] = x[stop]
            keep = ~stop
            live = live[keep]
            r1, r2, y, x, w, w2, inv = (a[keep] for a in (r1, r2, y, x, w, w2, inv))
            (beta1, oldb, beta, dbar, epsln, phibar, tnorm2, gmax, gmin, cs,
             sn) = (a[keep] for a in (beta1, oldb, beta, dbar, epsln, phibar,
                                      tnorm2, gmax, gmin, cs, sn))
    return X.T.copy()


def _check_residual(resid: np.ndarray, rhs: np.ndarray, tol: float, what: str):
    """Raise ArithmeticError when the true residual of a linear solve exceeds
    1e3 tol max(1, ||rhs||): of the vector, or of each column of a (dim, b)
    block, naming the first column over."""
    cols, rhs = resid.reshape(len(resid), -1), rhs.reshape(len(rhs), -1)
    norms = np.sqrt(np.einsum("ij,ij->j", cols, cols))
    budgets = 1e3 * tol * np.maximum(1.0, np.sqrt(np.einsum("ij,ij->j", rhs, rhs)))
    over = np.flatnonzero(norms > budgets)
    if over.size:
        j = over[0]
        where = f" column {j}" if resid.ndim == 2 else ""
        raise ArithmeticError(f"{what}{where} residual {norms[j]:.3e} "
                              f"over budget {budgets[j]:.3e}")


def solve_reduced_resolvent(H, energy: float, psi: np.ndarray, rhs: np.ndarray,
                            tol: float = 1e-10) -> np.ndarray:
    """x = (H - energy)^{-1} Q rhs with Q the projector off psi, x orthogonal
    to psi.  psi must be a normalized eigenvector of H, so that Q commutes
    with H and the deflated system is consistent and symmetric.  The shift
    need not equal psi's eigenvalue; it must lie off the rest of the
    spectrum.

    The preconditioner is Q D Q with D = |diag(H) - energy|^{-1} (zeros
    replaced by 1).  D is positive definite, so Q D Q is symmetric positive
    definite on range(Q), where the right-hand side and every MINRES iterate
    lie."""
    rhs_p = _project_out(np.asarray(rhs, dtype=float), psi)
    if not np.any(rhs_p):
        return np.zeros(H.shape[0])
    inv = _jacobi(H.diagonal() - energy)

    def apply(v):
        u = _project_out(v, psi)
        return _project_out(H @ u - energy * u, psi)

    def precond(v):
        return _project_out(inv * _project_out(v, psi), psi)

    x = _minres_solve(apply, precond, rhs_p, tol)
    _check_residual(apply(x) - rhs_p, rhs_p, tol, "reduced-resolvent")
    return _project_out(x, psi)


def _tail_start(H):
    """(n, C, off): the smallest index n with H[n:, n:] diagonal, H as COO,
    and the mask of C's nonzero off-diagonal entries."""
    C = H.tocoo()
    off = (C.row != C.col) & (C.data != 0.0)
    return int(np.max(np.minimum(C.row, C.col)[off], initial=-1)) + 1, C, off


class SchurSplit:
    """A symmetric sparse H split at its diagonal tail, built once per
    operator for `solve_shifted` and `ground_state`.

    `split` is the smallest index n with H[n:, n:] diagonal, read from the
    stored nonzero entries: one past the largest min(i, j) over the nonzero
    off-diagonal entries (i, j), so 0 for a diagonal H.  The bare Fock H is
    diagonal inside each photon sector and couples only neighbouring ones,
    so there n = `basis.offsets[n_max]` and the tail is the top sector; a
    generic matrix splits at its last row.  The factors are K = H[:n, :n],
    B = H[n:, :n] and B^T = H[:n, n:].  B is stored by columns (CSC): a row
    of the top sector q holds at most q entries, and by columns a product
    with a block of 8 columns takes 83 us against 110 us by rows on
    `pullthrough_q3`.  `nnz` counts the entries one product with the Schur
    complement streams, nnz(K) + 2 nnz(B).

    A split is also an operator for `ground_state`, read through `shape`,
    `@`, `diagonal()`, `toarray()` and `row_abs_bound()` (the exact row sums
    of |H|).  `shifted(d)` is the split of H + diag(d) in O(dim): it shares
    H and the factors and keeps the shift beside them, so the probes of one
    bare H need one split; it is an operator for `ground_state` only, and
    `solve_shifted` refuses it.  When the head fits the dense cutoff and a
    tail remains, n <= DENSE_CUTOFF < dim, `pairs` holds what
    `ground_state`'s Feshbach-Schur solve reads: K as a dense array, and for
    every pair of entries (a, b) with a >= b in one row t of B, the flat
    index a n + b, the product B_ta B_tb and t; else it is None."""

    def __init__(self, H):
        H = sp.csr_matrix(H)
        n, C, off = _tail_start(H)
        dim = H.shape[0]
        self.H, self.split, self.diag, self.shift = H, n, H.diagonal(), None
        R = H[n:, :n]  # B by rows
        self.K, self.B, self.Bt = H[:n, :n], R.tocsc(), H[:n, n:]
        self.off_abs = np.bincount(C.row[off], np.abs(C.data[off]), dim)
        self.pairs = None
        if 0 < n <= DENSE_CUTOFF < dim:
            counts = np.diff(R.indptr)
            row = np.repeat(np.arange(dim - n), counts)
            # entry e of row t pairs with each entry of t, itself included
            reps = counts[row]
            a = np.repeat(np.arange(R.nnz), reps)
            first = np.repeat(np.cumsum(reps) - reps, reps)
            b = R.indptr[row[a]] + np.arange(len(a)) - first
            lower = R.indices[a] >= R.indices[b]
            a, b = a[lower], b[lower]
            self.pairs = (self.K.toarray(), R.indices[a] * n + R.indices[b],
                          R.data[a] * R.data[b], row[a])

    @property
    def shape(self) -> tuple:
        return self.H.shape

    @property
    def nnz(self) -> int:
        return int(self.K.nnz + 2 * self.B.nnz)

    def diagonal(self) -> np.ndarray:
        return self.diag

    def shifted(self, d: np.ndarray) -> "SchurSplit":
        """The split of H + diag(d), sharing this one's factors."""
        out = copy.copy(self)
        out.shift = d if self.shift is None else self.shift + d
        out.diag = self.diag + d
        return out

    def __matmul__(self, x):
        if self.shift is None:
            return self.H @ x
        return self.H @ x + (self.shift if np.ndim(x) == 1 else self.shift[:, None]) * x

    def row_abs_bound(self) -> np.ndarray:
        return self.off_abs + np.abs(self.diag)

    def toarray(self) -> np.ndarray:
        A = self.H.toarray()
        np.fill_diagonal(A, self.diag)
        return A


def solve_shifted(H, z, rhs: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """X = (H - z)^{-1} rhs for real shifts z off the spectrum, one system
    per column of rhs.  rhs is (dim,), a block of width 1 whose solution
    comes back as (dim,), or (dim, b).  z is a scalar, one value per basis
    state (dim,), so H - diag(z) and a diagonal change of H needs no new
    matrix, or one such column per right-hand side (dim, b).  H is a
    `SchurSplit` without a shift, or a sparse matrix split here; build the
    split once when one H takes many shifts.

    The diagonal tail of H - z is eliminated exactly.  With n the split,
    x = (u, x_top), D the tail diagonal and g = (D - z_top)^{-1},

        x_top = g (rhs_top - B u),    S u = rhs_low - B^T g rhs_top,
        S = K - z_low - B^T g B,

    and MINRES solves for u on the n unknowns, with S applied as three
    sparse products.  A diagonal H (n = 0) takes no MINRES: x = rhs / (D - z).
    Tail rows whose pivot D_i - z_i is exactly 0 in any column of the block
    are not divided by: they stay in the reduced system of every column,
    with x_i as one more unknown (the bordered system [S, B_Z^T; B_Z,
    D_Z - z_Z] over those rows Z, still symmetric), so only H - z, not
    every pivot, has to be nonsingular.

    All columns run through one `_block_minres`, so one sparse product
    serves the whole block, and a column leaves it when its own stop test
    ends it; each column's result is bit for bit the one it gets alone.
    The preconditioner is the Jacobi one of H - z on the rows MINRES keeps,
    per column, |diag(H) - z|^{-1} with zeros replaced by 1: positive
    definite whatever the signs, so MINRES accepts it also when H - z is
    indefinite.  |diag S|^{-1} takes the same products on the pull-through
    chains (893 against 891), but where an entry of diag S nearly cancels
    it weights that row out of proportion and loosens the stop.  The true
    residual of every column of the full system H x - z x = rhs is checked
    against 1e3 tol max(1, ||rhs||), and an ArithmeticError raised above
    it."""
    if np.iscomplexobj(z):
        raise TypeError(f"solve_shifted takes a real shift, got {z!r}")
    op = H if isinstance(H, SchurSplit) else SchurSplit(H)
    if op.shift is not None:
        raise TypeError("solve_shifted takes an unshifted split")
    n, K, B, Bt, dim = op.split, op.K, op.B, op.Bt, op.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    R = rhs.reshape(dim, -1)
    z = np.asarray(z, dtype=float)
    Z = np.broadcast_to(z[:, None] if z.ndim == 1 else z, R.shape)
    pivot = op.diag[n:, None] - Z[n:]
    zero = np.unique(np.flatnonzero(pivot == 0.0) // R.shape[1])
    kept = pivot[zero]  # bordered rows: their pivots stay on the diagonal
    pivot[zero] = np.inf  # g = 1 / pivot = 0 there
    z_low, R_top = Z[:n], R[n:]
    inv = _jacobi(np.concatenate([op.diag[:n, None] - z_low, kept]))

    def apply(Y):
        # in place on the one top-sector temporary B U: each further array
        # of that size costs fresh pages, more than its arithmetic
        U, Y_zero = Y[:n], Y[n:]
        W = B @ U
        T_zero = W[zero]
        W /= pivot
        W[zero] = -Y_zero
        return np.concatenate([K @ U - z_low * U - Bt @ W,
                               T_zero + kept * Y_zero])

    Y = np.zeros((0, R.shape[1]))
    if n + len(zero):
        reduced = np.concatenate([R[:n] - Bt @ (R_top / pivot), R_top[zero]])
        Y = _block_minres(apply, inv, reduced, tol)
    # the pivots and x_top are freed before the residual checks, so that
    # at most four (dim, b) arrays are alive at once, rhs and z included
    X_top = B @ Y[:n]
    np.subtract(R_top, X_top, out=X_top)
    X_top /= pivot
    X_top[zero] = Y[n:]
    del pivot
    X = np.concatenate([Y[:n], X_top])
    del X_top
    # H X - Z X - rhs, formed in place a slab of rows at a time, so that no
    # further (dim, b) array is made
    resid = op.H @ X
    resid -= R
    for rows in range(0, dim, 1024):
        slab = slice(rows, rows + 1024)
        resid[slab] -= Z[slab] * X[slab]
    _check_residual(resid, R, tol, "shifted solve")
    return X.reshape(rhs.shape)


def contour_sup_norm(H, energy: float, psi: np.ndarray, radius: float,
                     v: np.ndarray, tol: float = 1e-10) -> float:
    """sup over the circle |z - energy| = radius of ||(H - z)^{-1} v||, for
    `energy` the lowest eigenvalue of H and psi its normalized eigenvector.

    Write v = sum_i c_i u_i in an eigenbasis of H.  On z = E + r e^{i theta},
    |lambda_i - z|^2 = (lambda_i - E)^2 - 2 r (lambda_i - E) cos theta + r^2,
    which for every lambda_i >= E is smallest at theta = 0.  Each term of
    ||(H - z)^{-1} v||^2 = sum_i c_i^2 / |lambda_i - z|^2 is then largest at
    z = E + r, so the supremum is attained there:

        sup^2 = (<psi, v> / r)^2 + ||(H - E - r)^{-1} Q v||^2,

    Q = 1 - |psi><psi|.  The second term is one reduced-resolvent solve at
    the shift E + r.  E must be the lowest eigenvalue: an eigenvalue below
    it would move the supremum off theta = 0."""
    x = solve_reduced_resolvent(H, energy + radius, psi, v, tol)
    return math.hypot(float(psi @ v) / radius, float(np.linalg.norm(x)))
