"""Tests for ground-state, reduced-resolvent, shifted-solve, and contour
sup-norm routines against closed forms and dense-factorization oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from nelsonlab import dressing, spectral
from nelsonlab.dressing import dressed_ground_state, hellmann_feynman_gradient, \
    soft_photon_block
from nelsonlab.fiberop import FiberMatrix, assemble, nelson_hamiltonian, \
    transformed_hamiltonian, weyl_coefficients
from nelsonlab.grid import GridSpec, ModelParams, build_grid, refine_annulus
from nelsonlab.fock import apply_displacement, build_basis
from nelsonlab.multiscale import SweepConfig
from nelsonlab.spectral import (
    SchurSplit,
    contour_sup_norm,
    ground_state,
    solve_reduced_resolvent,
    solve_shifted,
)

from helpers import random_momentum_grid


def toeplitz_tridiag(n, a, b):
    H = sp.diags([b * np.ones(n - 1), a * np.ones(n), b * np.ones(n - 1)],
                 [-1, 0, 1], format="csr")
    return H


def toeplitz_ground(n, a, b):
    """Closed-form lowest eigenpair of the (a, b) tridiagonal Toeplitz matrix
    with b > 0: eigenvalues a + 2 b cos(j pi / (n+1))."""
    theta = np.pi * np.arange(1, n + 1) / (n + 1)
    vals = np.sort(a + 2.0 * b * np.cos(theta))
    vec = np.sin(n * np.pi * np.arange(1, n + 1) / (n + 1))
    vec /= np.linalg.norm(vec)
    if vec[0] < 0:
        vec = -vec
    return vals[0], vals[1], vec


def random_bare_instance(n_modes, photon_cap):
    """Bare Nelson Hamiltonian on random modes plus a dense
    eigendecomposition of the same matrix as oracle."""
    rng = np.random.default_rng(1234)
    grid = random_momentum_grid(rng, n_modes=n_modes, sigma=0.1, kappa=1.0)
    basis = build_basis(n_modes, photon_cap)
    params = ModelParams(coupling=0.4, sigma=0.1, P=(0.05, 0.0, 0.02))
    H = assemble(nelson_hamiltonian(params, grid), basis)
    Hd = H.toarray()
    vals, vecs = np.linalg.eigh(Hd)
    return H, Hd, vals, vecs


@pytest.fixture(scope="module")
def nelson_instance():
    """Bare H past DENSE_CUTOFF (16 random modes at photon cap 3, dim 969)
    whose diagonal top sector leaves a head of 153 states: the
    Feshbach-Schur path."""
    return random_bare_instance(16, 3)


@pytest.fixture(scope="module")
def krylov_instance():
    """Bare H past DENSE_CUTOFF whose head does not fit the cutoff (11
    random modes at photon cap 4, dim 1,365, head 364): the LOBPCG
    path."""
    return random_bare_instance(11, 4)


def test_ground_state_dense_toeplitz_closed_form():
    n, a, b = 40, 2.0, 0.7
    e0, e1, vec = toeplitz_ground(n, a, b)
    rec = ground_state(toeplitz_tridiag(n, a, b))
    assert rec.method == "dense"
    assert abs(rec.energy - e0) < 1e-12
    assert abs(rec.gap - (e1 - e0)) < 1e-12
    assert abs(abs(vec @ rec.vector) - 1.0) < 1e-12
    assert rec.vector[0] > 0
    assert rec.residual < 1e-12


def test_ground_state_dim_one(monkeypatch):
    # a 1 x 1 operator is diagonal: its pair is read off without an
    # eigensolve, and asked for the gap, it has no second eigenvalue
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called on a 1 x 1 operator")

    monkeypatch.setattr(spectral, "eigh", refuse)
    monkeypatch.setattr(spectral, "_lobpcg", refuse)
    for gap in (True, False):
        rec = ground_state(sp.csr_matrix([[3.5]]), gap=gap)
        assert rec.method == "diagonal"
        assert rec.energy == 3.5 and rec.residual == 0.0
        assert rec.vector.tolist() == [1.0] and rec.excited is None
        assert (rec.gap == np.inf) if gap else np.isnan(rec.gap)


def test_dense_pair_over_budget_raises(monkeypatch):
    # the dense pair passes the same residual check as the iterative ones
    real_eigh = spectral.eigh

    def perturbed(A, **kwargs):
        vals, vecs = real_eigh(A, **kwargs)
        return vals + 1e-3, vecs

    monkeypatch.setattr(spectral, "eigh", perturbed)
    with pytest.raises(ArithmeticError, match="method=dense"):
        ground_state(toeplitz_tridiag(40, 2.0, 0.7))


def test_ground_state_phase_anchors():
    # vacuum component vanishes: anchor moves to the largest component
    rec = ground_state(sp.diags([5.0, 1.0], format="csr"))
    assert rec.vector[0] == 0.0 and rec.vector[1] == 1.0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((30, 30))
        rec = ground_state(sp.csr_matrix(A + A.T))
        anchor = rec.vector[0] if abs(rec.vector[0]) > 1e-10 \
            else rec.vector[np.argmax(np.abs(rec.vector))]
        assert anchor > 0


def test_ground_state_sparse_matches_dense(krylov_instance):
    H, Hd, vals, vecs = krylov_instance
    assert H.shape[0] == 1365 and SchurSplit(H).split > spectral.DENSE_CUTOFF
    # two eigenpairs from the default block: the vacuum-weighted vector and
    # one fixed seeded row
    rec = ground_state(H)
    assert rec.method == "lobpcg"
    assert abs(rec.energy - vals[0]) < 1e-12
    assert abs(rec.gap - (vals[1] - vals[0])) < 1e-12
    assert abs(abs(vecs[:, 0] @ rec.vector) - 1.0) < 1e-12
    assert abs(abs(vecs[:, 1] @ rec.excited) - 1.0) < 1e-12
    # a split whose head does not fit the cutoff takes the same path
    split = ground_state(SchurSplit(H))
    assert split.method == "lobpcg"
    assert abs(split.energy - rec.energy) < 1e-12


def test_ground_state_sparse_deterministic(krylov_instance):
    # two eigenpairs and one alike: the default block is fixed
    H = krylov_instance[0]
    for gap in (True, False):
        r1 = ground_state(H, gap=gap)
        r2 = ground_state(H, gap=gap)
        assert r1.energy == r2.energy
        assert np.array_equal(r1.vector, r2.vector)


def test_two_eigenpair_solve_fails_loudly_when_lobpcg_runs_out(monkeypatch):
    # a block LOBPCG that runs out of steps raises ArithmeticError naming
    # the method, and no other method retries; any other error of the
    # solver propagates unchanged
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 40)
    n = 150
    H = toeplitz_tridiag(n, 0.0, 0.4) + sp.diags(np.linspace(0.5, 3.5, n))

    def refuse(*args, **kwargs):
        raise AssertionError("another method ran")

    monkeypatch.setattr(spectral, "eigh", refuse)
    monkeypatch.setattr(spectral, "_feshbach", refuse)
    monkeypatch.setattr(spectral, "LOBPCG_MAXITER", 3)
    for start in (None, np.eye(3, n) + 1e-3):
        with pytest.raises(ArithmeticError, match="in 3 steps; method=lobpcg$"):
            ground_state(H, start=start)

    def bad_input(*args):
        raise ValueError("bad input")

    monkeypatch.setattr(spectral, "_lobpcg", bad_input)
    with pytest.raises(ValueError, match="bad input"):
        ground_state(H)


def test_start_block_of_too_few_or_dependent_rows_is_refused():
    # two eigenpairs need at least two rows, of full rank; and a block whose
    # residuals are dependent, here the first basis vectors of a
    # tridiagonal H, whose residuals all lie along the next one, raises
    n = spectral.DENSE_CUTOFF + 100
    H = toeplitz_tridiag(n, 0.0, 0.4) + sp.diags(np.linspace(0.5, 3.5, n))
    row = np.ones(n)
    with pytest.raises(ValueError, match="start block"):
        ground_state(H, start=row)
    with pytest.raises(ArithmeticError, match="start block.*method=lobpcg$"):
        ground_state(H, start=[row, 2.0 * row])
    with pytest.raises(ArithmeticError, match="W] is not.*method=lobpcg$"):
        ground_state(H, start=np.eye(3, n))


def factored_tridiagonal(n):
    """FiberMatrix with a graded diagonal F and a tridiagonal factor S."""
    return FiberMatrix(np.linspace(0.5, 3.5, n), toeplitz_tridiag(n, 1.0, 0.4))


def test_factored_operator_is_never_materialized_past_cutoff(monkeypatch):
    # above DENSE_CUTOFF LOBPCG, for two eigenpairs or one, never forms
    # the dense n x n array of a factored operator
    n = spectral.DENSE_CUTOFF + 100
    H = factored_tridiagonal(n)
    vals = np.linalg.eigvalsh(H.toarray())

    def refuse(self):
        raise AssertionError("dense n x n array formed")

    monkeypatch.setattr(FiberMatrix, "toarray", refuse)
    rec = ground_state(H)
    assert rec.method == "lobpcg"
    assert abs(rec.energy - vals[0]) < 1e-9
    assert abs(rec.gap - (vals[1] - vals[0])) < 1e-9
    rec = ground_state(H, gap=False)
    assert rec.method == "lobpcg"
    assert abs(rec.energy - vals[0]) < 1e-9


@pytest.mark.parametrize("kind", ["sparse", "factored"])
def test_one_eigenpair_past_cutoff_is_lobpcg(kind, krylov_instance):
    # k=1 past DENSE_CUTOFF, on an operator without a small head, is LOBPCG
    # on both operand kinds, and its pair agrees with a dense eigh
    H = (krylov_instance[0] if kind == "sparse"
         else factored_tridiagonal(spectral.DENSE_CUTOFF + 100))
    assert H.shape[0] > spectral.DENSE_CUTOFF
    vals, vecs = np.linalg.eigh(H.toarray())
    rec = ground_state(H, gap=False)
    assert rec.method == "lobpcg"
    assert abs(rec.energy - vals[0]) < 1e-12
    assert np.linalg.norm(rec.vector - vecs[:, 0] * np.sign(vecs[0, 0])) < 1e-10
    assert np.isnan(rec.gap) and rec.excited is None


def test_one_eigenpair_vector_is_as_close_as_arpack(krylov_instance):
    # the ground vector feeds the pull-through chains, so LOBPCG's stop must
    # leave it no farther from a tol=1e-14 Lanczos reference than the k=1
    # ARPACK solve at tol=1e-10 (16 basis vectors) that it replaced; a stop
    # at tol ||H||_inf would leave it about 1e-9 away
    H = krylov_instance[0]
    v0 = np.full(H.shape[0], 1e-3)
    v0[0] = 1.0

    def lanczos(tol, **kwargs):
        vec = eigsh(H, k=1, which="SA", v0=v0, tol=tol, **kwargs)[1][:, 0]
        return vec * np.sign(vec[0])

    reference = lanczos(1e-14)
    rec = ground_state(H, 1e-10, gap=False)
    assert rec.method == "lobpcg"
    assert (np.linalg.norm(rec.vector - reference)
            <= np.linalg.norm(lanczos(1e-10, ncv=16) - reference))


def test_lobpcg_drops_p_when_the_gram_is_not_positive_definite(monkeypatch,
                                                               krylov_instance):
    # Cholesky refuses the 3 x 3 Gram of [x, w, p] when p lies in the span of
    # x and w; the step then runs on [x, w] alone, and the solve converges
    H, _, vals, vecs = krylov_instance
    real_cholesky, grams = np.linalg.cholesky, []

    def refuse_3x3(G):
        grams.append(G.shape)
        if G.shape == (3, 3):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real_cholesky(G)

    monkeypatch.setattr(np.linalg, "cholesky", refuse_3x3)
    rec = ground_state(H, gap=False)
    assert rec.method == "lobpcg" and (3, 3) in grams
    assert abs(rec.energy - vals[0]) < 1e-12
    assert np.linalg.norm(rec.vector - vecs[:, 0] * np.sign(vecs[0, 0])) < 1e-10


def test_exhausted_lobpcg_raises(monkeypatch, krylov_instance):
    H = krylov_instance[0]
    monkeypatch.setattr(spectral, "LOBPCG_MAXITER", 2)
    with pytest.raises(ArithmeticError, match="in 2 steps; method=lobpcg$"):
        ground_state(H, gap=False)


def test_lobpcg_above_the_bottom_raises(monkeypatch, krylov_instance):
    # every diagonal entry is a Rayleigh quotient, so a LOBPCG pair above
    # min diag(H), as from a start without a ground-state component, missed
    # the bottom; here LOBPCG converges to the top eigenpair
    H, _, vals, vecs = krylov_instance
    assert vals[-1] > np.min(H.diagonal()) + 1.0
    monkeypatch.setattr(spectral, "_lobpcg", lambda *args: (vals[-1], vecs[:, -1]))
    with pytest.raises(ArithmeticError, match="missed the bottom.*method=lobpcg$"):
        ground_state(H, gap=False)


def zero_energy_hamiltonian(photon_cap):
    """lambda = 0, P = 0 Hamiltonian on 16 random modes: diagonal, with an
    empty vacuum row, so the ground energy is exactly 0."""
    grid = random_momentum_grid(np.random.default_rng(1234), n_modes=16,
                                sigma=0.1, kappa=1.0)
    params = ModelParams(coupling=0.0, sigma=0.1, P=(0.0, 0.0, 0.0))
    return assemble(nelson_hamiltonian(params, grid), build_basis(16, photon_cap))


def coupled_zero_energy_hamiltonian(photon_cap):
    """`zero_energy_hamiltonian` plus couplings 0.01 between neighbouring
    photon states: the vacuum row stays empty, so the ground energy is
    still exactly 0, but H is no longer diagonal and reaches the
    eigensolvers."""
    H = zero_energy_hamiltonian(photon_cap)
    off = np.full(H.shape[0] - 2, 0.01)
    coupling = sp.diags([off, off], [-1, 1])
    return (H + sp.block_diag([sp.csr_matrix((1, 1)), coupling])).tocsr()


@pytest.mark.parametrize("gap", [True, False], ids=["gap", "no_gap"])
def test_ground_state_finds_zero_energy_past_cutoff(gap):
    # LOBPCG stops on an absolute residual, so an exactly zero ground energy
    # is found for two eigenpairs as for one (ARPACK's test, relative to
    # the Ritz value, skipped it)
    H = coupled_zero_energy_hamiltonian(3)
    assert H.shape[0] > spectral.DENSE_CUTOFF
    rec = ground_state(H, gap=gap)
    assert abs(rec.energy) <= 1e-12
    assert rec.method == "lobpcg"
    assert abs(rec.vector[0] - 1.0) < 1e-12
    if gap:
        vals = np.linalg.eigvalsh(H.toarray())
        assert abs(rec.gap - vals[1]) < 1e-12
    else:
        assert np.isnan(rec.gap)


def test_one_eigenvalue_finds_zero_energy_below_cutoff():
    # without the gap, too, the dense solve runs up to DENSE_CUTOFF, and its
    # ground vector is the vacuum exactly: every other entry is an exact zero
    H = coupled_zero_energy_hamiltonian(2)
    assert H.shape[0] <= spectral.DENSE_CUTOFF
    rec = ground_state(H, gap=False)
    assert rec.method == "dense"
    assert abs(rec.energy) <= 1e-12
    assert rec.vector[0] == 1.0 and not np.any(rec.vector[1:])
    assert np.isnan(rec.gap)


@pytest.mark.parametrize("photon_cap", [2, 3], ids=["dense_dim", "lobpcg_dim"])
@pytest.mark.parametrize("gap", [True, False], ids=["gap", "no_gap"])
def test_diagonal_operator_needs_no_eigensolve(monkeypatch, photon_cap, gap):
    # at coupling 0 the ground vector is the vacuum exactly at every dim,
    # read off the diagonal: no eigensolver runs
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called on a diagonal operator")

    monkeypatch.setattr(spectral, "eigh", refuse)
    monkeypatch.setattr(spectral, "_lobpcg", refuse)
    H = zero_energy_hamiltonian(photon_cap)
    rec = ground_state(H, gap=gap)
    assert rec.method == "diagonal"
    assert rec.energy == 0.0 and rec.residual == 0.0
    assert rec.vector[0] == 1.0 and not np.any(rec.vector[1:])
    if gap:
        second = int(np.argsort(H.diagonal(), kind="stable")[1])
        assert rec.gap == H.diagonal()[second]
        assert rec.excited[second] == 1.0
        assert np.count_nonzero(rec.excited) == 1
    else:
        assert np.isnan(rec.gap) and rec.excited is None


@pytest.mark.parametrize("method, gap, given", [
    pytest.param("diagonal", True, False, id="diagonal"),
    pytest.param("dense", True, False, id="dense"),
    pytest.param("feshbach", True, False, id="feshbach"),
    pytest.param("lobpcg", False, False, id="lobpcg"),
    pytest.param("lobpcg", True, False, id="lobpcg_pair"),
    pytest.param("lobpcg", True, True, id="lobpcg_block")])
def test_vectors_are_contiguous_for_every_method(method, gap, given,
                                                 nelson_instance, krylov_instance):
    # downstream sums read the vectors; a strided row or column view of a
    # solver's array changes their rounding, so every method returns
    # contiguous unit copies, also the block path from a caller's start
    # block, here given as a transposed (F-ordered) array
    H = krylov_instance[0]
    if method == "diagonal":
        H = zero_energy_hamiltonian(2)
    elif method == "dense":
        H = toeplitz_tridiag(40, 2.0, 0.7)
    elif method == "feshbach":
        H = nelson_instance[0]
    start = np.asfortranarray(np.eye(3, H.shape[0]) + 1e-3) if given else None
    rec = ground_state(H, gap=gap, start=start)
    assert rec.method == method
    for v in [rec.vector] + ([rec.excited] if gap else []):
        assert v.ndim == 1 and v.dtype == np.float64 and v.flags.c_contiguous
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14


@pytest.mark.parametrize("gap", [True, False], ids=["gap", "no_gap"])
def test_feshbach_pairs_match_dense(gap, nelson_instance):
    # a bare H past DENSE_CUTOFF whose head fits it takes the Feshbach-Schur
    # map for one eigenpair or two, and repeats its bits
    H, _, vals, vecs = nelson_instance
    assert spectral.DENSE_CUTOFF >= SchurSplit(H).split == 153
    rec = ground_state(H, gap=gap)
    assert rec.method == "feshbach"
    assert abs(rec.energy - vals[0]) < 1e-12
    assert np.linalg.norm(rec.vector - vecs[:, 0] * np.sign(vecs[0, 0])) < 1e-10
    assert rec.residual < 1e-12
    if gap:
        assert abs(rec.gap - (vals[1] - vals[0])) < 1e-12
        assert abs(abs(rec.excited @ vecs[:, 1]) - 1.0) < 1e-10
    else:
        assert np.isnan(rec.gap) and rec.excited is None
    again = ground_state(SchurSplit(H), gap=gap)
    assert again.method == "feshbach"
    assert abs(again.energy - rec.energy) <= 1e-15
    assert np.linalg.norm(again.vector - rec.vector) <= 1e-13


def refuse_krylov(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("another method ran")

    monkeypatch.setattr(spectral, "_lobpcg", refuse)


def test_feshbach_level_above_the_tail_raises(monkeypatch):
    # the tail state (0.5) lies below the head's second level (1.01) and is
    # pushed up to 0.568 by its coupling, so H's second eigenvalue has no
    # root below min D: k=2 raises, and no other method takes over; the
    # ground level still has its root
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 2)
    refuse_krylov(monkeypatch)
    Hd = np.array([[1.0, 0.1, 0.0], [0.1, 0.0, 0.2], [0.0, 0.2, 0.5]])
    H = sp.csr_matrix(Hd)
    assert SchurSplit(H).split == 2
    with pytest.raises(ArithmeticError, match="not below min D.*method=feshbach$"):
        ground_state(H)
    rec = ground_state(H, gap=False)
    assert rec.method == "feshbach"
    assert abs(rec.energy - np.linalg.eigvalsh(Hd)[0]) < 1e-14


def test_stalled_feshbach_newton_raises(monkeypatch, nelson_instance):
    refuse_krylov(monkeypatch)
    monkeypatch.setattr(spectral, "FESHBACH_MAXITER", 1)
    with pytest.raises(ArithmeticError, match="in 1 steps; method=feshbach$"):
        ground_state(nelson_instance[0])


def test_feshbach_newton_takes_few_steps(monkeypatch, nelson_instance):
    # from lambda_j(K) Newton needs a handful of steps per level
    monkeypatch.setattr(spectral, "FESHBACH_MAXITER", 6)
    assert ground_state(nelson_instance[0]).method == "feshbach"


@pytest.mark.parametrize("instance, methods", [
    ("nelson_instance", ("feshbach", "feshbach")),
    ("krylov_instance", ("lobpcg", "lobpcg")),
])
def test_shifted_split_is_the_shifted_operator(instance, methods, request):
    # a probe is H + diag(d): the shifted split shares H's factors and reads
    # as that operator everywhere, on the Feshbach-Schur path and on the
    # LOBPCG one alike
    H, Hd = request.getfixturevalue(instance)[:2]
    dim = H.shape[0]
    d = np.linspace(-0.3, 0.2, dim)
    split = SchurSplit(H)
    op = split.shifted(d)
    shifted = (H + sp.diags(d)).tocsr()
    x = np.random.default_rng(4).standard_normal(dim)
    assert op.K is split.K and op.pairs is split.pairs
    assert np.array_equal(op.diagonal(), shifted.diagonal())
    assert np.array_equal(op.toarray(), shifted.toarray())
    assert np.allclose(op @ x, shifted @ x, rtol=0.0, atol=1e-14)
    assert np.allclose(op @ np.column_stack([x, 2 * x]),
                       shifted @ np.column_stack([x, 2 * x]), rtol=0.0, atol=3e-14)
    assert np.allclose(op.row_abs_bound(), np.abs(shifted).sum(axis=1).A1,
                       rtol=1e-15, atol=0.0)
    vals, vecs = np.linalg.eigh(Hd + np.diag(d))
    rec = ground_state(op)
    assert rec.method == methods[0]
    assert abs(rec.energy - vals[0]) < 1e-12
    assert abs(rec.gap - (vals[1] - vals[0])) < 1e-12
    one = ground_state(op, gap=False)
    assert one.method == methods[1]
    assert abs(one.energy - vals[0]) < 1e-12
    assert abs(abs(one.vector @ vecs[:, 0]) - 1.0) < 1e-12
    # shifted solves run on unshifted splits only
    with pytest.raises(TypeError, match="unshifted split"):
        solve_shifted(op, vals[0] - 0.5, x)


def test_ground_state_splits_a_sparse_h_only_for_the_feshbach_path(
        monkeypatch, nelson_instance, krylov_instance):
    # a sparse H past DENSE_CUTOFF is split inside ground_state only when
    # the split's head fits the cutoff; otherwise no split is built
    splits = []
    real_init = SchurSplit.__init__

    def recording_init(self, H):
        splits.append(H.shape[0])
        real_init(self, H)

    monkeypatch.setattr(SchurSplit, "__init__", recording_init)
    assert ground_state(nelson_instance[0]).method == "feshbach"
    assert ground_state(krylov_instance[0], gap=False).method == "lobpcg"
    assert ground_state(krylov_instance[0]).method == "lobpcg"
    assert splits == [969]


def random_case(seed, n):
    """Symmetric Gaussian matrix (CSR, every entry stored) and a right-hand
    side from one stream."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return sp.csr_matrix(A + A.T), rng.standard_normal(n)


def toeplitz_case(seed, n, b, lo, hi):
    """Sparse Toeplitz matrix plus a graded diagonal, and a right-hand side."""
    H = toeplitz_tridiag(n, 0.0, b) + sp.diags(np.linspace(lo, hi, n))
    return H, np.random.default_rng(seed).standard_normal(n)


def circle(center, radius, n):
    """n equally spaced points of |z - center| = radius, the first at
    z = center + radius."""
    return center + radius * np.exp(2j * np.pi * np.arange(n) / n)


@pytest.mark.parametrize("H, rhs", [random_case(7, 60),
                                    toeplitz_case(11, 120, 0.3, 1.0, 4.0)],
                         ids=["gaussian", "sparse"])
def test_reduced_resolvent_vs_spectral_sum(H, rhs):
    vals, vecs = np.linalg.eigh(H.toarray())
    psi = vecs[:, 0]
    oracle = (vecs[:, 1:] * ((vecs[:, 1:].T @ rhs) / (vals[1:] - vals[0]))).sum(axis=1)
    x = solve_reduced_resolvent(H, vals[0], psi, rhs)
    assert np.linalg.norm(x - oracle) < 1e-9 * max(1.0, np.linalg.norm(oracle))
    assert abs(psi @ x) < 1e-10


def test_reduced_resolvent_zero_rhs_component():
    # rhs parallel to psi projects to nothing
    rng = np.random.default_rng(3)
    A = rng.standard_normal((25, 25))
    H = A + A.T
    vals, vecs = np.linalg.eigh(H)
    x = solve_reduced_resolvent(sp.csr_matrix(H), vals[0], vecs[:, 0],
                                2.5 * vecs[:, 0])
    assert np.linalg.norm(x) < 1e-12


@pytest.mark.parametrize("H, rhs, offset", [(*random_case(21, 50), 0.5),
                                            (*toeplitz_case(5, 150, 0.4, 0.5, 3.5), 0.7)],
                         ids=["gaussian", "sparse"])
def test_solve_shifted_scalar_and_diagonal(H, rhs, offset):
    n = H.shape[0]
    Hd = H.toarray()
    vals = np.linalg.eigvalsh(Hd)
    z = vals[0] - offset
    x = solve_shifted(H, z, rhs)
    assert np.linalg.norm(x - np.linalg.solve(Hd - z * np.eye(n), rhs)) < 1e-10
    # one shift per state: H - diag(z) stays positive definite
    z_diag = vals[0] - offset - np.linspace(0.0, 1.0, n)
    x = solve_shifted(H, z_diag, rhs)
    assert np.linalg.norm(x - np.linalg.solve(Hd - np.diag(z_diag), rhs)) < 1e-10
    # shifts are real: a complex one is refused, never silently truncated
    with pytest.raises(TypeError):
        solve_shifted(H, 0.5 * (vals[0] + vals[-1]) + 0.4j, rhs)
    with pytest.raises(TypeError):
        solve_shifted(H, z_diag + 0.1j, rhs)


def test_small_solves_factor_no_matrix(monkeypatch):
    # every linear solve is a Krylov solve, also far below DENSE_CUTOFF
    H, rhs = random_case(13, 60)
    Hd = H.toarray()
    vals, vecs = np.linalg.eigh(Hd)
    reduced = (vecs[:, 1:] * ((vecs[:, 1:].T @ rhs) / (vals[1:] - vals[0]))).sum(axis=1)
    z = vals[0] - 0.5
    shifted = np.linalg.solve(Hd - z * np.eye(60), rhs)
    radius = (vals[1] - vals[0]) / 3.0
    contour = max(np.linalg.norm(np.linalg.solve(Hd - w * np.eye(60), rhs.astype(complex)))
                  for w in circle(vals[0], radius, 8))

    def refuse(*args, **kwargs):
        raise AssertionError("dense solve")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    x = solve_reduced_resolvent(H, vals[0], vecs[:, 0], rhs)
    assert np.linalg.norm(x - reduced) < 1e-9 * np.linalg.norm(reduced)
    assert np.linalg.norm(solve_shifted(H, z, rhs) - shifted) < 1e-10
    sup = contour_sup_norm(H, vals[0], vecs[:, 0], radius, rhs)
    assert abs(sup - contour) < 1e-8 * contour


def test_solve_shifted_indefinite_and_zero_diagonal():
    # the preconditioner |diag(H) - z|^{-1} stays positive definite when
    # H - z is indefinite, and when a diagonal entry of H - z is exactly 0
    H, rhs = random_case(13, 60)
    Hd = H.toarray()
    n = H.shape[0]
    vals = np.linalg.eigvalsh(Hd)
    i = n // 4 + int(np.argmax(np.diff(vals)[n // 4: 3 * n // 4]))
    z = 0.5 * (vals[i] + vals[i + 1])
    x = solve_shifted(H, z, rhs)
    assert np.linalg.norm(x - np.linalg.solve(Hd - z * np.eye(n), rhs)) < 1e-10
    z_diag = np.full(n, z)
    z_diag[n // 3] = Hd[n // 3, n // 3]
    assert H.diagonal()[n // 3] - z_diag[n // 3] == 0.0
    x = solve_shifted(H, z_diag, rhs)
    assert np.linalg.norm(x - np.linalg.solve(Hd - np.diag(z_diag), rhs)) < 1e-10


def planted_tail_case(seed, n_low, n_top):
    """Symmetric CSR whose trailing n_top x n_top block is diagonal: dense
    Gaussian K and couplings B, a graded tail diagonal; and a right-hand
    side."""
    rng = np.random.default_rng(seed)
    dim = n_low + n_top
    A = rng.standard_normal((dim, dim))
    H = A + A.T
    H[n_low:, n_low:] = np.diag(np.linspace(2.0, 6.0, n_top))
    return sp.csr_matrix(H), rng.standard_normal(dim)


def test_solve_shifted_eliminates_a_planted_diagonal_tail():
    H, rhs = planted_tail_case(7, 30, 50)
    Hd, dim = H.toarray(), H.shape[0]
    assert SchurSplit(H).split == 30
    vals = np.linalg.eigvalsh(Hd)
    i = int(np.argmax(np.diff(vals)[20:60])) + 20
    shifts = {"scalar": vals[0] - 0.5,
              "per-state": vals[0] - 0.5 - np.linspace(0.0, 1.0, dim),
              "indefinite": 0.5 * (vals[i] + vals[i + 1])}
    for name, z in shifts.items():
        exact = np.linalg.solve(Hd - np.diag(np.broadcast_to(z, (dim,))), rhs)
        x = solve_shifted(H, z, rhs)
        assert np.linalg.norm(x - exact) < 1e-10 * np.linalg.norm(exact), name


def test_solve_shifted_divides_a_diagonal_operator(monkeypatch):
    # nothing couples, so the split is 0 and x = rhs / (d - z) exactly
    d = np.linspace(-1.0, 3.0, 40)
    H = sp.diags(d).tocsr()
    rhs = np.random.default_rng(2).standard_normal(40)

    def refuse(*args, **kwargs):
        raise AssertionError("MINRES on a diagonal operator")

    monkeypatch.setattr(spectral, "minres", refuse)
    monkeypatch.setattr(spectral, "_block_minres", refuse)
    assert SchurSplit(H).split == 0
    z = np.linspace(-2.0, -1.5, 40)
    assert np.array_equal(solve_shifted(H, z, rhs), rhs / (d - z))
    assert np.array_equal(solve_shifted(H, 5.0, rhs), rhs / (d - 5.0))
    # a block of right-hand sides, each with its own shift
    block = np.column_stack([rhs, 2.0 * rhs, -rhs])
    shifts = np.column_stack([z, z - 1.0, np.full(40, 5.0)])
    assert np.array_equal(solve_shifted(H, shifts, block),
                          block / (d[:, None] - shifts))


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_bare_split_is_the_top_photon_sector(cap):
    params = ModelParams(coupling=0.1, sigma=0.25, P=(1 / 6, 0.0, 0.0))
    grid = build_grid(params, GridSpec(2, 2, 2))
    basis = build_basis(grid.n_modes, cap)
    H = assemble(nelson_hamiltonian(params, grid), basis)
    assert SchurSplit(H).split == basis.offsets[cap]
    free_params = ModelParams(coupling=0.0, sigma=0.25, P=(1 / 6, 0.0, 0.0))
    free = assemble(nelson_hamiltonian(free_params, grid), basis)
    assert SchurSplit(free).split == 0


def test_off_diagonal_tail_entry_shrinks_the_tail():
    # one coupling (45, 60) inside the planted tail: the split moves past
    # 45, and the solve still matches the dense oracle
    H, rhs = planted_tail_case(11, 30, 50)
    Hd = H.toarray()
    Hd[45, 60] = Hd[60, 45] = 0.7
    H = sp.csr_matrix(Hd)
    assert SchurSplit(H).split == 46
    z = np.linalg.eigvalsh(Hd)[0] - 0.5
    exact = np.linalg.solve(Hd - z * np.eye(80), rhs)
    assert np.linalg.norm(solve_shifted(H, z, rhs) - exact) < 1e-10 * np.linalg.norm(exact)


def test_zero_tail_pivot_stays_in_the_reduced_system():
    # a per-state shift that makes the tail pivot of state 70 exactly 0:
    # H - z stays nonsingular, and the row is solved, not divided by 0
    H, rhs = planted_tail_case(3, 30, 50)
    Hd, dim = H.toarray(), H.shape[0]
    z = np.full(dim, np.linalg.eigvalsh(Hd)[0] - 0.5)
    z[70] = Hd[70, 70]
    assert H.diagonal()[70] - z[70] == 0.0
    exact = np.linalg.solve(Hd - np.diag(z), rhs)
    x = solve_shifted(H, z, rhs)
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(x - exact) < 1e-10 * np.linalg.norm(exact)


def block_shift_case(seed=9, width=8):
    """A planted-tail H, a (dim, width) block of right-hand sides, and one
    per-state shift column per right-hand side, all below the spectrum."""
    H, _ = planted_tail_case(seed, 30, 50)
    dim = H.shape[0]
    rng = np.random.default_rng(seed)
    low = np.linalg.eigvalsh(H.toarray())[0]
    shifts = low - 0.5 - rng.uniform(0.0, 1.0, (dim, width))
    return H, rng.standard_normal((dim, width)), shifts


def test_block_solve_shifted_matches_dense_solves_per_column():
    H, block, shifts = block_shift_case()
    Hd = H.toarray()
    cases = {"scalar": shifts[0, 0], "per-state": shifts[:, 0],
             "per-column": shifts}
    for name, z in cases.items():
        X = solve_shifted(H, z, block)
        assert X.shape == block.shape, name
        Z = np.broadcast_to(z[:, None] if np.ndim(z) == 1 else z, block.shape)
        for j in range(block.shape[1]):
            exact = np.linalg.solve(Hd - np.diag(Z[:, j]), block[:, j])
            assert np.linalg.norm(X[:, j] - exact) < 1e-10 * np.linalg.norm(exact), (name, j)


def test_zero_tail_pivot_in_one_column_only():
    # state 70's pivot is 0 in column 1 alone: that row stays an unknown of
    # every column's reduced system, bordered with its own pivot elsewhere
    H, block, shifts = block_shift_case(width=3)
    Hd = H.toarray()
    shifts[70, 1] = Hd[70, 70]
    assert H.diagonal()[70] - shifts[70, 1] == 0.0
    assert np.all(H.diagonal()[70] - shifts[70, [0, 2]] != 0.0)
    X = solve_shifted(H, shifts, block)
    assert np.all(np.isfinite(X))
    for j in range(3):
        exact = np.linalg.solve(Hd - np.diag(shifts[:, j]), block[:, j])
        assert np.linalg.norm(X[:, j] - exact) < 1e-10 * np.linalg.norm(exact), j


def test_block_columns_do_not_depend_on_their_neighbours():
    # a column solved alone, in a block of 3 and in a block of 8 gives the
    # same bits, also when the other columns stop at other steps
    H, block, shifts = block_shift_case()
    split = SchurSplit(H)
    eight = solve_shifted(split, shifts, block)
    for j in range(8):
        alone = solve_shifted(split, shifts[:, j], block[:, j])
        cols = [j, (j + 3) % 8, (j + 5) % 8]
        three = solve_shifted(split, shifts[:, cols], block[:, cols])
        assert np.array_equal(alone, eight[:, j]), j
        assert np.array_equal(three[:, 0], eight[:, j]), j


def test_a_block_column_over_budget_raises(monkeypatch):
    H, block, shifts = block_shift_case(width=3)
    solve = spectral._block_minres

    def perturbed(*args):
        Y = solve(*args)
        Y[:, 1] += 1e-3
        return Y

    monkeypatch.setattr(spectral, "_block_minres", perturbed)
    with pytest.raises(ArithmeticError, match="column 1"):
        solve_shifted(H, shifts, block)


def test_solve_shifted_returns_contiguous_float_vectors():
    H, rhs = planted_tail_case(5, 30, 50)
    split = SchurSplit(H)
    for op in (H, split, sp.diags(H.diagonal()).tocsr()):
        for z in (-20.0, np.full(80, -20.0)):
            x = solve_shifted(op, z, list(rhs))
            assert x.ndim == 1 and x.dtype == np.float64
            assert x.flags.c_contiguous


def test_reduced_resolvent_ground_state_on_a_basis_vector():
    # state 0 decouples below the rest, so psi = e_0 and diag(H) - E has an
    # exact zero, which the preconditioner must replace
    T, rhs = toeplitz_case(17, 80, 0.3, 1.0, 4.0)
    energy = 0.2
    H = sp.block_diag([sp.csr_matrix([[energy]]), T], format="csr")
    rhs = np.concatenate([[0.7], rhs])
    psi = np.zeros(H.shape[0])
    psi[0] = 1.0
    vals, vecs = np.linalg.eigh(H.toarray())
    assert abs(vals[0] - energy) < 1e-14 and vals[1] - energy > 0.1
    oracle = (vecs[:, 1:] * ((vecs[:, 1:].T @ rhs) / (vals[1:] - vals[0]))).sum(axis=1)
    x = solve_reduced_resolvent(H, energy, psi, rhs)
    assert np.linalg.norm(x - oracle) < 1e-9 * np.linalg.norm(oracle)
    assert x[0] == 0.0


@pytest.fixture(scope="module")
def dressed_scales():
    """Dressed states of the acceptance sweep at scales 1-3 (dims 190, 703,
    1,540)."""
    config = SweepConfig(params=ModelParams(coupling=0.1, P=(1 / 6, 0.0, 0.0)),
                         spec=GridSpec(4, 3, 3), epsilon=0.5)
    grid = build_grid(config.params.with_sigma(config.sigma_at(0)), config.spec)
    states = []
    for n, dim in [(1, 190), (2, 703), (3, 1540)]:
        sigma = config.sigma_at(n)
        grid = refine_annulus(grid, sigma)
        basis = build_basis(grid.n_modes, config.photon_cap)
        assert basis.dim == dim
        states.append(dressed_ground_state(config.params.with_sigma(sigma), grid,
                                           basis, config.tol))
    return states


def test_reduced_solves_do_not_grow_with_the_scale(dressed_scales, monkeypatch):
    # Without the diagonal preconditioner MINRES needs 22, 35 and 50
    # iterations for R0 Gamma_x phi at scales 1-3, growing like sigma^{-1/2}.
    iterations = []
    minres = spectral.minres

    def counting(A, b, **kwargs):
        steps = []
        kwargs["callback"] = lambda xk: steps.append(None)
        out = minres(A, b, **kwargs)
        iterations.append(len(steps))
        return out

    monkeypatch.setattr(spectral, "minres", counting)
    for state in dressed_scales:
        iterations.clear()
        state.phi_derivs
        assert len(iterations) == 3 and max(iterations) <= 16, \
            (state.basis.dim, iterations)


def test_factored_residual_budget_is_the_exact_one(dressed_scales):
    # the eigensolver check on a factored Hw reads ||Hw||_inf through a row
    # bound; at the pipeline's scales that bound must not loosen the check
    for state in dressed_scales:
        Hw = state.Hw
        assert not sp.issparse(Hw)
        exact = 1e3 * state.tol * max(1.0, np.max(np.sum(np.abs(Hw.toarray()),
                                                         axis=1)))
        budget = spectral._residual_budget(spectral._row_abs_sums(Hw), state.tol)
        assert abs(budget - exact) <= 1e-12 * exact
        assert state.diagnostics["residual_w"] <= exact


def acceptance_scale(n):
    """Parameters, grid and basis of scale n of the acceptance sweep."""
    config = SweepConfig(params=ModelParams(coupling=0.1, P=(1 / 6, 0.0, 0.0)),
                         spec=GridSpec(4, 3, 3), epsilon=0.5)
    grid = build_grid(config.params.with_sigma(config.sigma_at(0)), config.spec)
    for m in range(1, n + 1):
        grid = refine_annulus(grid, config.sigma_at(m))
    return (config.params.with_sigma(config.sigma_at(n)), grid,
            build_basis(grid.n_modes, config.photon_cap))


def bare_acceptance_scale(n, dim):
    """Bare H at scale n of the acceptance sweep, its ground_state record,
    and its spectrum from a dense eigvalsh."""
    params, grid, basis = acceptance_scale(n)
    H = assemble(nelson_hamiltonian(params, grid), basis)
    assert H.shape[0] == dim
    return ground_state(H, 1e-10), np.linalg.eigvalsh(H.toarray())


def count_block_matvecs(monkeypatch):
    """List that receives, per product with a factored operator, the number
    of vectors it multiplies: 1 for a vector, b for a (dim, b) block."""
    counts = []
    real_matmul = FiberMatrix.__matmul__

    def counting(self, x):
        counts.append(1 if np.ndim(x) == 1 else x.shape[1])
        return real_matmul(self, x)

    monkeypatch.setattr(FiberMatrix, "__matmul__", counting)
    return counts


def test_warm_started_intermediate_solve_matches_cold(dressed_scales, monkeypatch):
    # H_int at scale 3 (previous gradient's dressing) is W Hw W* for the one
    # displacement W by h_int - h, so Hw's transported pair, as two rows,
    # starts it, and takes fewer matvecs than the default block
    prev, state = dressed_scales[1], dressed_scales[2]
    params, grid, basis = state.params, state.grid, state.basis
    H_int = assemble(transformed_hamiltonian(params, grid, prev.grad_e), basis)
    h_int = weyl_coefficients(params, grid, prev.grad_e)
    start = apply_displacement(basis, h_int - state.h,
                               np.column_stack([state.phi, state.phi1])).T
    counts = count_block_matvecs(monkeypatch)
    cold = ground_state(H_int, state.tol)
    n_cold = sum(counts)
    warm = ground_state(H_int, state.tol, start=start)
    n_warm = sum(counts) - n_cold
    assert cold.method == warm.method == "lobpcg"
    assert abs(warm.energy - cold.energy) <= 1e-12
    assert abs(warm.gap - cold.gap) <= 1e-12
    assert abs(abs(warm.vector @ cold.vector) - 1.0) <= 1e-10
    assert n_warm < n_cold, (n_warm, n_cold)


@pytest.fixture(scope="module")
def bare_scale_3():
    """Bare H at scale 3 (dim 1,540) of the acceptance sweep, its
    ground_state record, and its spectrum from a dense eigvalsh."""
    return bare_acceptance_scale(3, 1540)


def test_bare_energy_and_gap_match_dense_oracle_at_scale_2():
    # dim 703 is past DENSE_CUTOFF, and the top photon sector leaves a head
    # of 37 states: the Feshbach-Schur map gives the pair
    rec, vals = bare_acceptance_scale(2, 703)
    assert rec.method == "feshbach"
    assert abs(rec.energy - vals[0]) < 1e-9
    assert abs(rec.gap - (vals[1] - vals[0])) < 1e-9


def test_bare_energy_matches_dense_oracle_at_scale_3(bare_scale_3):
    rec, vals = bare_scale_3
    assert rec.method == "feshbach"
    assert abs(rec.energy - vals[0]) < 1e-9


def test_bare_gap_matches_dense_oracle_at_scale_3(bare_scale_3):
    # the first excited state is odd under the y mirror, which Lanczos from
    # a mirror-symmetric start never saw (ledger gap 0.15551309); the map
    # reads every symmetry sector
    rec, vals = bare_scale_3
    assert abs(rec.gap - (vals[1] - vals[0])) < 1e-9
    assert abs(rec.gap - 0.15537090) < 5e-9


def test_block_path_finds_the_mirror_odd_level(monkeypatch, bare_scale_3):
    # with the Feshbach-Schur path closed, the bare H at scale 3 takes
    # block LOBPCG from the soft-photon block.  The two softest modes are
    # images under the y mirror, so b*_1 psi - b*_2 psi reaches the odd
    # level, and so does the seeded component when the block is made
    # mirror-even; without that component an even block sees only the
    # symmetric sector's gap
    vals = bare_scale_3[1]
    params, grid, basis = acceptance_scale(3)
    H = assemble(nelson_hamiltonian(params, grid), basis)
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 40)
    psi = ground_state(H, gap=False).vector
    grad = hellmann_feynman_gradient(params, grid, basis, psi)

    def blocks():
        block = soft_photon_block(basis, grid, grad, psi)
        assert len(block) == 3
        return block, np.array([block[0], block[1] + block[2]])

    for start in blocks():
        rec = ground_state(H, start=start)
        assert rec.method == "lobpcg"
        assert abs(rec.gap - (vals[1] - vals[0])) < 1e-10
    monkeypatch.setattr(dressing, "SEED_WEIGHT", 0.0)
    rec = ground_state(H, start=blocks()[1])
    assert rec.method == "lobpcg"
    assert abs(rec.gap - 0.15551309) < 5e-9


def test_bare_energy_and_gap_match_dense_oracle_at_scale_4():
    rec, vals = bare_acceptance_scale(4, 2701)
    assert rec.method == "feshbach"
    assert abs(rec.energy - vals[0]) < 1e-9
    assert abs(rec.gap - (vals[1] - vals[0])) < 1e-9
    assert abs(rec.gap - 0.07703589) < 5e-9


def test_contour_sup_norm_diagonal_closed_form():
    d = np.array([0.0, 0.5, 0.9, 2.0, 3.0])
    H = sp.diags(d, format="csr")
    rng = np.random.default_rng(2)
    v = rng.standard_normal(5)
    sup = contour_sup_norm(H, 0.0, np.eye(5)[0], 0.2, v)
    oracle = np.array([np.sqrt(np.sum(v**2 / np.abs(d - z) ** 2))
                       for z in circle(0.0, 0.2, 12)])
    assert abs(sup - np.max(oracle)) < 1e-10 * np.max(oracle)


def test_contour_sup_norm_eigenvector_is_inverse_radius():
    # v along psi: ||(H - z)^{-1} v|| = ||v|| / r everywhere on the circle
    d = np.array([0.0, 0.7, 1.3, 2.2])
    v = np.array([1.0, 0.0, 0.0, 0.0])
    sup = contour_sup_norm(sp.diags(d, format="csr"), 0.0, v, 0.25, v)
    assert abs(sup - 1.0 / 0.25) < 1e-12
    H, _ = random_case(29, 40)
    vals, vecs = np.linalg.eigh(H.toarray())
    radius = (vals[1] - vals[0]) / 3.0
    sup = contour_sup_norm(H, vals[0], vecs[:, 0], radius, -2.5 * vecs[:, 0])
    assert abs(sup - 2.5 / radius) < 1e-12 * (2.5 / radius)


def test_contour_sup_norm_sparse_vs_direct():
    n = 200
    H = toeplitz_tridiag(n, 0.0, 0.3) + sp.diags(np.linspace(1.0, 4.0, n))
    Hd = H.toarray()
    vals, vecs = np.linalg.eigh(Hd)
    v = vecs[:, 0] + 0.3 * vecs[:, 5]
    center, radius = vals[0], (vals[1] - vals[0]) / 3.0
    sup = contour_sup_norm(H, center, vecs[:, 0], radius, v, tol=1e-9)
    oracle = np.array([np.linalg.norm(np.linalg.solve(Hd - z * np.eye(n),
                                                      v.astype(complex)))
                       for z in circle(center, radius, 8)])
    assert abs(sup - np.max(oracle)) < 1e-6 * np.max(oracle)


def test_contour_sup_norm_zero_vector():
    assert contour_sup_norm(sp.diags([1.0, 2.0], format="csr"), 1.0, np.eye(2)[0],
                            0.3, np.zeros(2)) == 0.0


@pytest.mark.parametrize("where", ["inside the gap", "past the second eigenvalue"])
def test_contour_sup_norm_is_the_max_over_3600_angles(where):
    # the supremum sits at z = E + r for any radius off the spectrum, also
    # when the circle encloses excited eigenvalues
    H, v = random_case(23, 40)
    Hd = H.toarray()
    vals, vecs = np.linalg.eigh(Hd)
    radius = ((vals[1] - vals[0]) / 3.0 if where == "inside the gap"
              else 0.5 * (vals[1] + vals[2]) - vals[0])
    norms = np.array([np.linalg.norm(np.linalg.solve(Hd - z * np.eye(40),
                                                     v.astype(complex)))
                      for z in circle(vals[0], radius, 3600)])
    sup = contour_sup_norm(H, vals[0], vecs[:, 0], radius, v)
    assert np.argmax(norms) == 0
    assert abs(sup - np.max(norms)) < 1e-10 * np.max(norms)

