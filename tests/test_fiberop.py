import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from helpers import (assert_same_csr, dense_compressed, dense_fiber_operator,
                     compression_map, product_ladders, random_momentum_grid,
                     reference_lowering, toy_grid)
from nelsonlab.dressing import dressed_ground_state
from nelsonlab.fiberop import (FiberMatrix, FiberOperator, VectorFiberOperator,
                               alpha_factors, assemble, assemble_vector_component,
                               canonical_distance, canonical_terms, displace,
                               gamma_operator, momentum_shift_diagonal,
                               nelson_hamiltonian, pf_diagonals,
                               transformed_hamiltonian,
                               transformed_hamiltonian_routes, weyl_coefficients)
from nelsonlab.fock import FockBasis, build_basis
from nelsonlab.grid import GridSpec, ModelParams, build_grid, refine_annulus
from nelsonlab.multiscale import SweepConfig


def random_fiber_operator(rng, n_modes, with_C=True):
    return FiberOperator(
        w=rng.normal(size=3),
        K=rng.normal(size=(n_modes, 3)) * 0.5,
        C=rng.normal(size=(n_modes, 3)) * 0.3 if with_C else np.zeros((n_modes, 3)),
        d=rng.uniform(0.2, 1.5, size=n_modes),
        g=rng.normal(size=n_modes) * 0.2,
        e=rng.normal(),
    )


def test_single_mode_two_level_oracle():
    # basis {vacuum, one photon}, P = 0: H = [[0, g], [g, k^2/2 + |k|]]
    grid = toy_grid([[0.0, 0.0, 0.5]], [1.0], sigma=0.3, kappa=1.0)
    params = ModelParams(coupling=0.1, sigma=0.3, P=(0.0, 0.0, 0.0))
    op = nelson_hamiltonian(params, grid)
    basis = build_basis(1, 1)
    H = assemble(op, basis).toarray()
    g = 0.1 / math.sqrt(2.0 * 0.5)
    omega = 0.5 + 0.5**2 / 2.0
    assert np.allclose(H, [[0.0, g], [g, omega]], atol=1e-15)
    E = np.linalg.eigvalsh(H)[0]
    E_formula = omega / 2.0 - math.sqrt(omega**2 / 4.0 + g**2)
    assert abs(E - E_formula) <= 1e-14


def test_assemble_matches_dense_brute_force():
    # the top-sector compression of |A|^2 against a dense product-space oracle
    rng = np.random.default_rng(42)
    cases = []
    for M, Q in [(2, 3), (3, 1), (3, 2), (1, 4)]:
        op = random_fiber_operator(rng, M)
        if M == 3 and Q == 2:
            # a component without field part takes the per-component skip
            C = op.C.copy()
            C[:, 1] = 0.0
            op = FiberOperator(op.w, op.K, C, op.d, op.g, op.e)
        cases.append((op, build_basis(M, Q)))
    # the dressed Hamiltonian, whose factors are the pipeline's
    grid = random_momentum_grid(rng, 3)
    params = ModelParams(coupling=0.2, sigma=grid.sigma, P=(0.05, -0.1, 0.0))
    cases.append((transformed_hamiltonian(params, grid, [0.03, -0.06, 0.02]),
                  build_basis(3, 2)))
    for op, basis in cases:
        H = assemble(op, basis)
        assert isinstance(H, FiberMatrix)
        H_dense = dense_compressed(op, basis)
        assert np.max(np.abs(H.toarray() - H_dense)) \
            <= 1e-12 * max(1.0, np.max(np.abs(H_dense)))


@pytest.fixture(scope="module")
def dressed_small():
    """A dressed Hamiltonian on five random modes at photon cap 3 (dim 56),
    assembled and materialized."""
    rng = np.random.default_rng(17)
    grid = random_momentum_grid(rng, 5)
    params = ModelParams(coupling=0.3, sigma=grid.sigma, P=(0.1, 0.05, -0.02))
    H = assemble(transformed_hamiltonian(params, grid, [0.04, 0.02, -0.05]),
                 build_basis(5, 3))
    assert isinstance(H, FiberMatrix)
    return H, H.toarray()


def test_factored_matvec_matches_materialized(dressed_small):
    H, Hd = dressed_small
    X = np.random.default_rng(3).standard_normal((Hd.shape[0], 4))
    for x in X.T:
        assert np.linalg.norm(H @ x - Hd @ x) <= 1e-14 * np.linalg.norm(Hd @ x)


def test_factored_diagonal_matches_materialized(dressed_small):
    H, Hd = dressed_small
    assert np.max(np.abs(H.diagonal() - np.diag(Hd))) \
        <= 1e-14 * np.max(np.abs(np.diag(Hd)))


def test_factored_nnz_counts_stored_factor_entries(dressed_small):
    H, _ = dressed_small
    assert type(H.nnz) is int
    assert H.G is None  # dressed: the closed route has no field term
    assert H.nnz == np.count_nonzero(H.F) + H.S.nnz + H.half_St.nnz


def test_factored_row_bound_covers_the_row_sums(dressed_small):
    H, Hd = dressed_small
    rows = np.sum(np.abs(Hd), axis=1)
    assert np.all(H.row_abs_bound() >= rows * (1.0 - 1e-15))


@pytest.fixture(scope="module")
def scale3_hw():
    """The dressed Hw at scale 3 of the acceptance sweep (dim 1,540)."""
    config = SweepConfig(params=ModelParams(coupling=0.1, P=(1 / 6, 0.0, 0.0)),
                         spec=GridSpec(4, 3, 3), epsilon=0.5)
    grid = build_grid(config.params.with_sigma(config.sigma_at(0)), config.spec)
    for n in (1, 2, 3):
        grid = refine_annulus(grid, config.sigma_at(n))
    basis = build_basis(grid.n_modes, config.photon_cap)
    assert basis.dim == 1540
    params = config.params.with_sigma(config.sigma_at(3))
    state = dressed_ground_state(params, grid, basis, config.tol)
    return state.Hw, transformed_hamiltonian(params, grid, state.grad_e), basis


def test_factors_store_far_fewer_entries_than_the_product(scale3_hw):
    # the multiplied-out dressed matrix holds 167,860 nonzeros
    Hw = scale3_hw[0]
    assert np.count_nonzero(Hw.toarray()) >= 2 * Hw.nnz


def reference_component(vop, j, basis):
    """One affine component as scipy's sparse sums build it."""
    A = sp.diags(vop.w[j] + basis.number_diagonal(vop.K[:, j])).tocsr()
    if np.any(vop.C[:, j]):
        L = reference_lowering(basis, vop.C[:, j])
        A = A + (L + L.T)
    return A


def reference_factors(op, basis):
    """(F, S) of `assemble` as scipy's sparse sums, products and vstack
    build them: F the CSR sum of the diagonal and field parts, S the row
    stack of the components and of L_j @ diags(top), without empty rows
    (None when A has no field part).  S's rows are sorted, as `abs(S)`
    sorted them in place at the first `ground_state` call when S was built
    this way, before any product with it."""
    dim = basis.dim
    diag = np.full(dim, op.e) + basis.number_diagonal(op.d)
    F = sp.csr_matrix((dim, dim))
    if np.any(op.g):
        L = reference_lowering(basis, op.g)
        F = F + (L + L.T)
    vop = VectorFiberOperator(op.w, op.K, op.C)
    top = basis.photon_count == basis.n_max
    rows, lowerings = [], []
    for j in range(3):
        c = op.C[:, j]
        if np.any(c):
            rows.append(reference_component(vop, j, basis))
            lowerings.append(reference_lowering(basis, c) @ sp.diags(top.astype(float)))
            diag[top] += 0.5 * float(c @ c)
        else:
            a = basis.number_diagonal(op.K[:, j]) + op.w[j]
            diag += 0.5 * a * a
    F = (F + sp.diags(diag)).tocsr()
    if not rows:
        return F, None
    S = sp.vstack(rows + lowerings, format="csr")
    filled = np.diff(S.indptr) > 0
    S = sp.csr_matrix((S.data, S.indices, np.append(0, S.indptr[1:][filled])),
                      shape=(int(filled.sum()), dim))
    S.sort_indices()
    return F, S


def reference_cases():
    """(operator, basis) over photon caps 0..3, no modes, and coefficient
    vectors with exact zeros: a mode without field part, a component
    without one, a zero g entry and a zero vacuum diagonal."""
    rng = np.random.default_rng(23)
    cases = []
    for M, Q in [(0, 2), (3, 0), (2, 1), (3, 2), (4, 3)]:
        for with_g in (True, False):
            op = random_fiber_operator(rng, M)
            w, C = op.w.copy(), op.C.copy()
            g = op.g.copy() if with_g else np.zeros(M)
            if M:
                C[0] = 0.0
                C[:, 1] = 0.0
                g[-1] = 0.0
            w[2] = 0.0  # A_2 vanishes on the vacuum
            cases.append(pytest.param(FiberOperator(w, op.K, C, op.d, g, op.e),
                                      build_basis(M, Q),
                                      id=f"M{M}-Q{Q}-{'g' if with_g else 'no_g'}"))
    grid = random_momentum_grid(rng, 4)
    params = ModelParams(coupling=0.2, sigma=grid.sigma, P=(0.05, -0.1, 0.0))
    routes = transformed_hamiltonian_routes(params, grid, [0.03, -0.06, 0.02])
    for name, route in zip(("displaced", "closed"), routes):
        cases.append(pytest.param(route, build_basis(4, 3), id=f"dressed_{name}"))
    return cases


@pytest.mark.parametrize("op, basis", reference_cases())
def test_assemble_matches_the_scipy_reference_bit_for_bit(op, basis):
    F_ref, S_ref = reference_factors(op, basis)
    H = assemble(op, basis)
    if S_ref is None:
        assert_same_csr(H, F_ref)
        return
    assert isinstance(H, FiberMatrix)
    assert (H.G is None) == (not np.any(op.g))
    F = sp.diags(H.F).tocsr()
    assert_same_csr(F if H.G is None else F + H.G, F_ref)
    assert_same_csr(H.S, S_ref)
    half_St = S_ref.T.tocsr()
    half_St.data *= 0.5
    assert_same_csr(H.half_St, half_St)
    diagonal = F_ref.diagonal() + 0.5 * np.asarray(S_ref.multiply(S_ref).sum(axis=0)).ravel()
    assert H.diagonal().tobytes() == diagonal.tobytes()
    assert H.toarray().tobytes() == (F_ref + half_St @ S_ref).toarray().tobytes()
    # the row bound reads S without sorting it in place, so no product moves
    x = np.random.default_rng(2).standard_normal(basis.dim)
    before = (H @ x).tobytes()
    H.row_abs_bound()
    assert (H @ x).tobytes() == before
    vop = VectorFiberOperator(op.w, op.K, op.C)
    for j in range(3):
        assert_same_csr(assemble_vector_component(vop, j, basis),
                        reference_component(vop, j, basis))


def test_dressed_matvec_matches_the_reference_factors_bit_for_bit(scale3_hw):
    # F x + (S^T / 2)(S x) with F the diagonal CSR matrix and S the sorted
    # row stack scipy's sparse sums, products and vstack build
    Hw, op, basis = scale3_hw
    F_ref, S_ref = reference_factors(op, basis)
    half_St = S_ref.T.tocsr()
    half_St.data *= 0.5
    X = np.random.default_rng(5).standard_normal((basis.dim, 3))
    for x in (X[:, 0].copy(), X, np.asfortranarray(X)):
        want = F_ref @ x + half_St @ (S_ref @ x)
        got = Hw @ x
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_assemble_builds_no_auxiliary_basis(monkeypatch):
    rng = np.random.default_rng(8)
    op = random_fiber_operator(rng, 3)
    basis = build_basis(3, 2)

    def refuse(self, *args, **kwargs):
        raise AssertionError("assemble constructed a FockBasis")

    monkeypatch.setattr(FockBasis, "__init__", refuse)
    H = assemble(op, basis)
    assert H.shape == (basis.dim, basis.dim)


def test_assemble_diagonal_fast_path_matches_dense():
    rng = np.random.default_rng(1)
    op = random_fiber_operator(rng, 3, with_C=False)
    basis = build_basis(3, 2)
    H = assemble(op, basis).toarray()
    H_dense = dense_compressed(op, basis)
    assert np.max(np.abs(H - H_dense)) <= 1e-12 * max(1.0, np.max(np.abs(H_dense)))


def test_assemble_empty_grid():
    params = ModelParams(sigma=1.0, kappa=1.0, P=(0.3, 0.0, 0.0))
    grid = build_grid(params)
    op = nelson_hamiltonian(params, grid)
    basis = build_basis(0, 2)
    H = assemble(op, basis).toarray()
    assert H.shape == (1, 1)
    assert abs(H[0, 0] - 0.5 * 0.3**2) <= 1e-15


def test_displace_matches_dense_conjugation():
    # coefficient-level displacement against dense W H W* on a roomy space
    rng = np.random.default_rng(8)
    op = random_fiber_operator(rng, 2)
    h = np.array([0.2, -0.15])
    basis = build_basis(2, 2)
    per_mode_dim = 12
    H_dense = dense_fiber_operator(op, 2, per_mode_dim)
    ladders = product_ladders(2, per_mode_dim)
    G = sum(h[m] * (ladders[m] - ladders[m].T) for m in range(2))
    W = expm(G)
    H_conj = W @ H_dense @ W.T
    rows = compression_map(basis, per_mode_dim)
    block = H_conj[np.ix_(rows, rows)]
    H_disp = assemble(displace(op, h), basis).toarray()
    assert np.max(np.abs(H_disp - block)) <= 1e-9


def test_displace_van_hove_exact():
    # no |A|^2 part: displacing by -g/d zeroes the field term and leaves -sum g^2/d
    d = np.array([0.5, 1.2])
    g = np.array([0.3, -0.4])
    op = FiberOperator(np.zeros(3), np.zeros((2, 3)), np.zeros((2, 3)), d, g, 0.0)
    out = displace(op, -g / d)
    assert np.max(np.abs(out.g)) <= 1e-15
    assert abs(out.e - (-np.sum(g**2 / d))) <= 1e-15


def test_displace_composition():
    rng = np.random.default_rng(12)
    op = random_fiber_operator(rng, 3)
    h1, h2 = rng.normal(size=3) * 0.2, rng.normal(size=3) * 0.2
    once = displace(op, h1 + h2)
    twice = displace(displace(op, h1), h2)
    assert canonical_distance(once, twice) <= 1e-14


def test_canonical_terms_gauge_invariance():
    # shifting A by a constant against d, g, e leaves canonical blocks fixed
    rng = np.random.default_rng(21)
    op = random_fiber_operator(rng, 3)
    c = rng.normal(size=3)
    gauged = FiberOperator(
        w=op.w + c,
        K=op.K, C=op.C,
        d=op.d - op.K @ c,
        g=op.g - op.C @ c,
        e=op.e - float(op.w @ c) - 0.5 * float(c @ c),
    )
    assert canonical_distance(op, gauged) <= 1e-14
    # component sign flips too
    flipped = FiberOperator(-op.w, -op.K, -op.C, op.d, op.g, op.e)
    assert canonical_distance(op, flipped) <= 1e-14


def test_weyl_coefficients_formula():
    rng = np.random.default_rng(2)
    grid = random_momentum_grid(rng, 5)
    params = ModelParams(coupling=0.2, sigma=grid.sigma)
    gradE = np.array([0.05, -0.02, 0.1])
    h = weyl_coefficients(params, grid, gradE)
    op = nelson_hamiltonian(params, grid)
    alpha = alpha_factors(grid, gradE)
    assert np.allclose(h, -op.g / (grid.r * alpha), atol=1e-15)
    with pytest.raises(ValueError):
        # gradient aligned with a mode direction and longer than 1
        alpha_factors(grid, 1.5 * grid.k[0] / grid.r[0])


def test_gamma_operator_coefficients():
    rng = np.random.default_rng(3)
    grid = random_momentum_grid(rng, 4)
    params = ModelParams(coupling=0.15, sigma=grid.sigma, P=(0.1, 0.0, -0.05))
    gradE = np.array([0.08, 0.01, -0.03])
    h = weyl_coefficients(params, grid, gradE)
    gam = gamma_operator(params, grid, gradE)
    assert np.allclose(gam.K, grid.k, atol=1e-15)
    assert np.allclose(gam.C, grid.k * h[:, None], atol=1e-15)
    w_expected = -params.P_vec + grid.k.T @ (h * h) + gradE
    assert np.allclose(gam.w, w_expected, atol=1e-15)


def test_transformed_hamiltonian_dual_route():
    rng = np.random.default_rng(17)
    for trial in range(5):
        grid = random_momentum_grid(rng, rng.integers(2, 6))
        params = ModelParams(coupling=float(rng.uniform(0.02, 0.3)), sigma=grid.sigma,
                             P=tuple(rng.normal(size=3) * 0.1))
        gradE = rng.normal(size=3) * 0.15
        r1, r2 = transformed_hamiltonian_routes(params, grid, gradE)
        assert canonical_distance(r1, r2) <= 1e-14
        # closed form has no explicit field term and dressed frequencies
        assert np.max(np.abs(r2.g)) == 0.0
        assert np.allclose(r2.d, alpha_factors(grid, gradE) * grid.r, atol=1e-15)


def test_transformed_hamiltonian_assembled_routes_agree():
    rng = np.random.default_rng(29)
    grid = random_momentum_grid(rng, 3)
    params = ModelParams(coupling=0.2, sigma=grid.sigma, P=(0.05, -0.1, 0.0))
    gradE = np.array([0.03, -0.06, 0.02])
    r1, r2 = transformed_hamiltonian_routes(params, grid, gradE)
    basis = build_basis(3, 2)
    H1 = assemble(r1, basis).toarray()
    H2 = assemble(r2, basis).toarray()
    assert np.max(np.abs(H1 - H2)) <= 1e-12 * max(1.0, np.max(np.abs(H1)))


def test_transformed_hamiltonian_abort_on_mismatch(monkeypatch):
    rng = np.random.default_rng(4)
    grid = random_momentum_grid(rng, 3)
    params = ModelParams(coupling=0.2, sigma=grid.sigma)
    gradE = np.zeros(3)
    # a corrupted weyl coefficient must trip the dual-route self-check
    import nelsonlab.fiberop as fo
    orig = fo.weyl_coefficients
    calls = {"n": 0}

    def corrupted(params_, grid_, gradE_):
        h = orig(params_, grid_, gradE_)
        calls["n"] += 1
        if calls["n"] == 1:  # only the displaced route sees the corruption
            h = h.copy()
            h[0] *= 1.0 + 1e-6
        return h

    monkeypatch.setattr(fo, "weyl_coefficients", corrupted)
    with pytest.raises(ArithmeticError):
        transformed_hamiltonian(params, grid, gradE)


def test_transformed_hamiltonian_lambda_zero_is_free():
    grid = random_momentum_grid(np.random.default_rng(6), 4)
    params = ModelParams(coupling=0.0, sigma=grid.sigma, P=(0.1, 0.0, 0.0))
    HW = transformed_hamiltonian(params, grid, np.array([0.1, 0.0, 0.0]))
    assert np.max(np.abs(HW.C)) == 0.0  # no dressing at zero coupling
    free = nelson_hamiltonian(params, grid)
    basis = build_basis(4, 2)
    # numerically identical spectra: same operator up to the closed-form gauge
    H1 = assemble(HW, basis).toarray()
    H0 = assemble(free, basis).toarray()
    assert np.max(np.abs(H1 - H0)) <= 1e-13


def test_assemble_vector_component_dense():
    rng = np.random.default_rng(31)
    vop = VectorFiberOperator(rng.normal(size=3), rng.normal(size=(2, 3)),
                              rng.normal(size=(2, 3)) * 0.4)
    basis = build_basis(2, 3)
    from helpers import dense_vector_component
    per_mode_dim = basis.n_max + 3
    rows = compression_map(basis, per_mode_dim)
    for j in range(3):
        A = assemble_vector_component(vop, j, basis).toarray()
        A_dense = dense_vector_component(vop, j, 2, per_mode_dim)[np.ix_(rows, rows)]
        assert np.max(np.abs(A - A_dense)) <= 1e-13


def test_momentum_shift_diagonal():
    rng = np.random.default_rng(14)
    grid = random_momentum_grid(rng, 3)
    basis = build_basis(3, 2)
    P, P_new = (0.1, -0.05, 0.0), (0.02, 0.07, -0.1)
    params = ModelParams(coupling=0.2, sigma=grid.sigma, P=P)
    H = assemble(nelson_hamiltonian(params, grid), basis).toarray()
    H_new = assemble(nelson_hamiltonian(params.with_P(P_new), grid), basis).toarray()
    shift = momentum_shift_diagonal(basis, grid, P, P_new)
    assert np.max(np.abs(H + np.diag(shift) - H_new)) <= 1e-14
    # no modes: only the free kinetic term moves, on the vacuum alone
    empty = build_grid(ModelParams(sigma=1.0, kappa=1.0, P=P))
    assert empty.n_modes == 0
    shift = momentum_shift_diagonal(build_basis(0, 2), empty, P, P_new)
    expected = 0.5 * (np.dot(P_new, P_new) - np.dot(P, P))
    assert shift.shape == (1,) and abs(shift[0] - expected) <= 1e-15


def test_pf_diagonals_matches_number_diagonal():
    rng = np.random.default_rng(15)
    grid = random_momentum_grid(rng, 3)
    basis = build_basis(3, 2)
    pf = pf_diagonals(basis, grid)
    for j in range(3):
        assert np.allclose(pf[:, j], basis.number_diagonal(grid.k[:, j]), atol=1e-15)
