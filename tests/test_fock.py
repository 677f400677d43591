import csv
import io
import math
import warnings
from collections import Counter

import numpy as np
import pytest

import scipy.sparse as sp

from helpers import (assert_same_csr, basis_states, lowering_matrix,
                     reference_lowering, state_index)
from nelsonlab.fiberop import assemble, nelson_hamiltonian
from nelsonlab.fock import (StateVector, apply_displacement, basis_hash,
                            build_basis, displacement_generator, embed)
from nelsonlab.grid import GridSpec, ModelParams, build_grid, point_group_permutations


def test_dimension_small_enumeration():
    # M = 3, Q = 2: vacuum + 3 single + 6 pairs = 10
    assert build_basis(3, 2).dim == 10


def test_dimension_stars_and_bars():
    for M, Q in [(2, 3), (4, 3), (5, 2), (1, 6)]:
        assert build_basis(M, Q).dim == math.comb(M + Q, Q)


def sector_rows(b):
    """The package's basis states, sector by sector, as tuples."""
    return [tuple(row) for rows in b.sectors for row in rows.tolist()]


def test_ordering_photon_major_then_lex():
    assert basis_states(3, 2) == [(), (0,), (1,), (2,), (0, 0), (0, 1), (0, 2),
                                  (1, 1), (1, 2), (2, 2)]
    for M, Q in [(0, 2), (3, 0), (3, 2), (4, 3), (1, 5), (7, 4)]:
        assert sector_rows(build_basis(M, Q)) == basis_states(M, Q)


def test_index_round_trip():
    # position i holds the i-th reference state, inside its sector's offsets
    b = build_basis(4, 3)
    assert len(b.sectors) == b.n_max + 1 and b.offsets[-1] == b.dim
    for i, s in enumerate(basis_states(4, 3)):
        q = len(s)
        assert b.offsets[q] <= i < b.offsets[q + 1]
        assert tuple(b.sectors[q][i - b.offsets[q]]) == s
        assert b.photon_count[i] == q


@pytest.mark.parametrize("Q", range(4))
def test_basis_hash_is_known_before_enumerating(Q):
    # a checkpoint's basis is checked against basis_hash(M, Q) without
    # enumerating it, so the enumerated basis must hash the same, and the
    # hashes of stored checkpoints must not move
    for M in (0, 1, 4, 9, 36):
        assert build_basis(M, Q).content_hash() == basis_hash(M, Q)
    assert len({basis_hash(M, Q) for M in range(40)}) == 40
    if Q == 2:
        assert basis_hash(0, 2) == "178386a83a562f42"
        assert basis_hash(36, 2) == "a1edf23e1d3181ac"


def test_dim_cap_guard():
    with pytest.raises(ValueError):
        build_basis(200, 4, dim_cap=10_000)


def test_ccr_on_interior_states():
    # [b_m, b*_m'] = delta_mm' away from the caps
    b = build_basis(3, 3)
    interior = b.photon_count <= b.n_max - 1
    for m in range(3):
        Bm = lowering_matrix(b, m).toarray()
        for mp in range(3):
            Bp = lowering_matrix(b, mp).toarray()
            comm = Bm @ Bp.T - Bp.T @ Bm
            expected = (1.0 if m == mp else 0.0) * np.eye(b.dim)
            block = (comm - expected)[np.ix_(interior, interior)]
            assert np.max(np.abs(block)) <= 1e-14


def test_adjointness_exact():
    rng = np.random.default_rng(7)
    b = build_basis(3, 3)
    u, v = rng.normal(size=b.dim), rng.normal(size=b.dim)
    for m in range(3):
        B = lowering_matrix(b, m)
        assert abs(u @ (B @ v) - (B.T @ u) @ v) <= 1e-13


def test_number_diagonal_matches_counter():
    b = build_basis(3, 3)
    f = np.array([0.5, 1.5, -0.3])
    diag = b.number_diagonal(f)
    for i, s in enumerate(basis_states(3, 3)):
        c = Counter(s)
        assert abs(diag[i] - sum(f[m] * c[m] for m in c)) <= 1e-15


def test_apply_annihilate_amplitudes():
    b = build_basis(2, 3)
    index = state_index(2, 3)
    v = np.zeros(b.dim)
    v[index[(0, 0, 1)]] = 1.0
    out = lowering_matrix(b, 0) @ v
    assert abs(out[index[(0, 1)]] - math.sqrt(2.0)) <= 1e-15
    assert abs(np.linalg.norm(out) - math.sqrt(2.0)) <= 1e-15


def test_raising_is_lowering_transpose_on_truncation():
    # b*_m |s> = sqrt(n_m + 1) |s + m> below the cap; the top sector maps to 0
    b = build_basis(2, 2)
    index = state_index(2, 2)
    for m in range(2):
        R = lowering_matrix(b, m).T.toarray()
        expected = np.zeros((b.dim, b.dim))
        for s, i in index.items():
            if len(s) < b.n_max:
                raised = tuple(sorted(s + (m,)))
                expected[index[raised], i] = math.sqrt(Counter(s)[m] + 1.0)
        assert np.max(np.abs(R - expected)) <= 1e-15
    v = np.zeros(b.dim)
    v[index[(1,)]] = 2.0
    out = lowering_matrix(b, 1).T @ v
    assert abs(out[index[(1, 1)]] - 2.0 * math.sqrt(2.0)) <= 1e-15


def test_embed_isometry_and_placement():
    parent = build_basis(2, 2)
    child = build_basis(4, 2)
    rng = np.random.default_rng(3)
    v = rng.normal(size=parent.dim)
    u = embed(v, parent, child)
    assert abs(np.linalg.norm(u) - np.linalg.norm(v)) <= 1e-15
    assert u[state_index(4, 2)[(0, 1)]] == v[state_index(2, 2)[(0, 1)]]
    assert u[state_index(4, 2)[(2,)]] == 0.0
    with pytest.raises(ValueError):
        embed(u, child, parent)


@pytest.mark.parametrize("parent, child", [((2, 2), (4, 2)), ((3, 2), (3, 3)),
                                           ((0, 2), (3, 2)), ((2, 70), (3, 70))],
                         ids=["more_modes", "higher_cap", "no_modes", "70_photons"])
def test_embed_matches_dict_loop_reference(parent, child):
    # reference: each parent state placed at its child position by a dict;
    # in (2, 70) -> (3, 70) a base-3 key of a 70-photon row would pass int64
    v = np.random.default_rng(13).normal(size=build_basis(*parent).dim)
    index = state_index(*child)
    expected = np.zeros(len(index))
    for i, s in enumerate(basis_states(*parent)):
        expected[index[s]] = v[i]
    assert np.array_equal(embed(v, build_basis(*parent), build_basis(*child)),
                          expected)


def test_embed_commutes_with_operators():
    # acting on old modes then embedding = embedding then acting
    parent = build_basis(2, 2)
    child = build_basis(3, 2)
    rng = np.random.default_rng(11)
    v = rng.normal(size=parent.dim)
    lhs = embed(lowering_matrix(parent, 1) @ v, parent, child)
    rhs = lowering_matrix(child, 1) @ embed(v, parent, child)
    assert np.allclose(lhs, rhs, atol=1e-15)


def test_displacement_coherent_state_oracle():
    # exp(delta (b - b*)) vacuum = coherent state with amplitude -delta
    delta = 0.3
    b = build_basis(1, 30)
    v = np.zeros(b.dim)
    v[0] = 1.0
    out = apply_displacement(b, np.array([delta]), v)
    n = np.arange(31)
    expected = np.exp(-delta**2 / 2.0) * (-delta) ** n / np.sqrt(
        np.array([math.factorial(int(j)) for j in n], dtype=float))
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_displacement_norm_preserving_and_invertible():
    rng = np.random.default_rng(5)
    b = build_basis(3, 4)
    delta = np.array([0.2, -0.1, 0.15])
    v = rng.normal(size=b.dim)
    v /= np.linalg.norm(v)
    out = apply_displacement(b, delta, v)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
    back = apply_displacement(b, -delta, out)
    assert np.max(np.abs(back - v)) <= 1e-12


def test_lowering_is_the_sum_of_single_mode_lowerings():
    b = build_basis(3, 3)
    c = np.array([0.7, 0.0, -1.3])
    expected = sum(c[m] * lowering_matrix(b, m).toarray() for m in range(3))
    # each matrix element has a single mode's contribution: exact equality;
    # L is the upper triangle of the generator L - L^T
    G = displacement_generator(b, c).toarray()
    assert np.array_equal(np.triu(G), expected)


@pytest.mark.parametrize("M, Q", [(0, 2), (3, 0), (1, 4), (4, 3), (6, 2), (2, 70)])
def test_annihilation_arrays_match_counter_reference(M, Q):
    # reference: a per-state Counter loop, independent of the occupancy
    # arrays; in (2, 70) a base-2 key of a 70-photon row would pass int64
    b = build_basis(M, Q)
    ptr, occ_mode, occ_count = [0], [], []
    src, mode, tgt, amp = [], [], [], []
    index = state_index(M, Q)
    for s, i in index.items():
        c = Counter(s)
        for m in sorted(c):
            occ_mode.append(m)
            occ_count.append(c[m])
            lowered = list(s)
            lowered.remove(m)
            src.append(i)
            mode.append(m)
            tgt.append(index[tuple(lowered)])
            amp.append(math.sqrt(c[m]))
        ptr.append(len(occ_mode))
    occ = b.occupation
    assert occ.shape == (b.dim, M)
    for got, want in [(occ.indptr, ptr), (occ.indices, occ_mode), (occ.data, occ_count),
                      (b.photon_count, [len(s) for s in basis_states(M, Q)])]:
        assert np.array_equal(got, want)
    for got, want in zip(b.annihilation_arrays(), (src, mode, tgt, amp)):
        assert np.array_equal(got, want)


def test_annihilation_cache_is_a_declared_field():
    b = build_basis(3, 2)
    before = set(vars(b))
    arrays = b.annihilation_arrays()
    assert set(vars(b)) == before
    assert b.annihilation_arrays() is arrays


@pytest.mark.parametrize("M, Q", [(0, 2), (3, 0), (2, 1), (3, 2), (4, 3), (1, 3)])
def test_gathers_match_scipy_sums_bit_for_bit(M, Q):
    # reference: L = sum_m c_m b_m as a COO matrix, then scipy's sums,
    # transposes and products; c and the diagonal hold exact zeros
    b = build_basis(M, Q)
    rng = np.random.default_rng(M + 10 * Q)
    c = rng.normal(size=M)
    c[:M // 2] = 0.0
    diag = rng.normal(size=b.dim)
    diag[::3] = 0.0
    L = reference_lowering(b, c)
    assert_same_csr(b.operator(c, diag), sp.diags(diag).tocsr() + (L + L.T))
    assert_same_csr(b.operator(c), L + L.T)
    assert_same_csr(displacement_generator(b, c), (L - L.T).tocsr())
    if Q:
        top = sp.diags((b.photon_count == Q).astype(float))
        T = (L @ top)[b.offsets[Q - 1]:b.offsets[Q]]
        T.sort_indices()
        assert_same_csr(b.top_lowering(c), T)


def test_operator_pattern_is_a_read_only_declared_cache():
    b = build_basis(3, 2)
    before = set(vars(b))
    pattern = b.operator_pattern()
    assert set(vars(b)) == before
    assert b.operator_pattern() is pattern
    for a in pattern:
        assert a.dtype == np.int32
        with pytest.raises(ValueError):
            a[0] = 1
    # a matrix without zero entries shares the pattern, which scipy
    # cannot then change in place
    A = b.operator(np.ones(3), np.ones(b.dim))
    assert np.shares_memory(A.indptr, pattern[0])
    assert np.shares_memory(A.indices, pattern[1])
    with pytest.raises(ValueError):
        A.indices[0] = 1


def test_displacement_generator_antisymmetric():
    b = build_basis(2, 3)
    G = displacement_generator(b, np.array([0.4, -0.2])).toarray()
    assert np.max(np.abs(G + G.T)) == 0.0


def test_state_vector_csv_round_trip():
    b = build_basis(2, 2)
    rng = np.random.default_rng(9)
    sv = StateVector(rng.normal(size=b.dim) * np.logspace(-300, 300, b.dim), b)
    text = sv.to_csv()
    back = StateVector.from_csv(text, b)
    assert np.array_equal(back.data, sv.data)
    # the parser rounds each cell as float() does
    assert back.data.tolist() == [float(line.split(",")[1])
                                  for line in text.splitlines()[1:]]
    assert back.to_csv() == text


def test_state_vector_complex_round_trip():
    # state vectors are real: a complex one is refused on writing, not
    # written without its imaginary part
    b = build_basis(2, 1)
    z = np.array([1.0 + 2.0j, -0.5j, 0.25])
    with pytest.raises(TypeError, match="Cannot cast"):
        StateVector(z, b).to_csv()


def csv_writer_oracle(data):
    """State-vector CSV text as csv.writer writes it, row by row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "re", "im"])
    for i, x in enumerate(data):
        writer.writerow([i, repr(float(x)), repr(0.0)])
    return buf.getvalue()


def test_state_vector_csv_bytes_match_csv_writer():
    b = build_basis(4, 3)
    rng = np.random.default_rng(17)
    data = rng.normal(size=b.dim) * np.logspace(-300, 300, b.dim)
    data[:4] = [0.0, -0.0, 1.0, -1e-17]
    assert StateVector(data, b).to_csv() == csv_writer_oracle(data)


def test_state_vector_csv_rejects_incomplete_input():
    b = build_basis(2, 2)
    lines = StateVector(np.arange(b.dim, dtype=float), b).to_csv().splitlines()
    truncated = "\n".join(lines[:-2]) + "\n"
    with pytest.raises(ValueError, match="lacks 2 of 6 indices, first 4"):
        StateVector.from_csv(truncated, b)
    duplicated = "\n".join(lines[:-1] + [lines[1]]) + "\n"
    with pytest.raises(ValueError, match="repeats index 0"):
        StateVector.from_csv(duplicated, b)
    beyond = "\n".join(lines + [f"{b.dim},1.0,0.0"]) + "\n"
    with pytest.raises(ValueError, match=f"index {b.dim} outside"):
        StateVector.from_csv(beyond, b)
    # state vectors are real: an im cell that is not zero is refused, not
    # dropped, while a signed zero reads as zero
    imaginary = "\n".join(lines[:2] + ["1,1.0,1e-300"] + lines[3:]) + "\n"
    with pytest.raises(ValueError, match="line 3 has im = 1e-300"):
        StateVector.from_csv(imaginary, b)
    signed_zero = "\n".join(lines[:2] + ["1,1.0,-0.0"] + lines[3:]) + "\n"
    assert StateVector.from_csv(signed_zero, b).data[1] == 1.0
    two_cells = "\n".join(lines[:2] + ["1,1.0"] + lines[3:]) + "\n"
    with pytest.raises(ValueError, match="does not parse"):
        StateVector.from_csv(two_cells, b)
    not_a_number = "\n".join(lines[:2] + ["1,one,0.0"] + lines[3:]) + "\n"
    with pytest.raises(ValueError, match="does not parse"):
        StateVector.from_csv(not_a_number, b)
    # a row that looks like a comment is a defect, not a line to skip
    commented = "\n".join(lines[:2] + ["#1,1.0,0.0"] + lines[3:]) + "\n"
    with pytest.raises(ValueError, match="does not parse"):
        StateVector.from_csv(commented, b)
    blank = "\n".join(lines[:3] + [""] + lines[3:]) + "\n"
    with pytest.raises(ValueError, match="line 4 has 0 cells"):
        StateVector.from_csv(blank, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lacks 6 of 6 indices, first 0"):
            StateVector.from_csv(lines[0] + "\n", b)
    # one row parses as one row, not as a scalar
    vacuum = build_basis(0, 2)
    text = StateVector(np.array([-0.75]), vacuum).to_csv()
    assert text == "index,re,im\n0,-0.75,0.0\n"
    assert StateVector.from_csv(text, vacuum).data.tolist() == [-0.75]


def test_empty_mode_set():
    b = build_basis(0, 2)
    assert b.dim == 1
    assert [rows.shape for rows in b.sectors] == [(1, 0), (0, 1), (0, 2)]
    assert np.array_equal(b.number_diagonal(np.zeros(0)), np.zeros(1))
    # modes but no photons: the vacuum alone, with no occupation
    assert np.array_equal(build_basis(3, 0).number_diagonal([1.0, 2.0, 3.0]),
                          np.zeros(1))


# ---------------------------------------------------------------------------
# mode permutations acting on the basis


def _permutations_of(M):
    rng = np.random.default_rng(M)
    return [np.arange(M), np.arange(M)[::-1].copy(), rng.permutation(M)]


@pytest.mark.parametrize("Q", [0, 1, 2, 3])
@pytest.mark.parametrize("M", [0, 1, 4])
def test_permutation_maps_each_sector_onto_itself(M, Q):
    b = build_basis(M, Q)
    index = state_index(M, Q)
    for perm in _permutations_of(M):
        u = b.permutation(perm)
        assert u.dtype == np.int64 and u.shape == (b.dim,)
        # against the tuple reference: map the modes, sort, look up
        assert u.tolist() == [index[tuple(sorted(perm[list(s)].tolist()))]
                              for s in basis_states(M, Q)]
        for q in range(Q + 1):
            lo, hi = b.offsets[q], b.offsets[q + 1]
            assert sorted(u[lo:hi].tolist()) == list(range(lo, hi))
    assert np.array_equal(b.permutation(np.arange(M)), np.arange(b.dim))


@pytest.mark.parametrize("Q", [0, 1, 2, 3])
def test_permutation_commutes_with_lowering(Q):
    # U b_m U^T = b_{perm[m]}: lowering mode m and then mapping reaches the
    # state that mapping and then lowering mode perm[m] reaches, with the
    # same amplitude
    b = build_basis(5, Q)
    src, mode, tgt, amp = b.annihilation_arrays()
    lowered = {(int(i), int(m)): (int(t), float(a))
               for i, m, t, a in zip(src, mode, tgt, amp)}
    for perm in _permutations_of(5):
        u = b.permutation(perm)
        for i, m, t, a in zip(src, mode, tgt, amp):
            assert lowered[(int(u[i]), int(perm[m]))] == (int(u[t]), float(a))


@pytest.mark.parametrize("perm", [[0, 1], [0, 1, 2, 3], [0, 0, 1], [0, 1, 3],
                                  [-1, 0, 1], [0.0, 1.0, 2.0], [[0, 1, 2]]],
                         ids=str)
def test_permutation_refuses_what_is_not_one(perm):
    with pytest.raises(ValueError, match="not a permutation of the 3 modes"):
        build_basis(3, 2).permutation(np.array(perm))


def test_bare_h_is_invariant_to_rounding_under_the_point_group():
    # the bare H at P on the x axis commutes with each U of the grid's point
    # group that fixes P, but only to rounding: the P_f sums of a state and
    # of its image add the same terms in another order.  The largest entry
    # of U H U^T - H was 1.8e-15 here and 8.9e-16 at GridSpec(4, 3, 3),
    # sigma 0.125, cap 3; the bound is 4 ulp of max |H|
    params = ModelParams(coupling=0.1, sigma=0.5, P=(1 / 6, 0.0, 0.0))
    grid = build_grid(params, GridSpec(2, 3, 3))
    perms = point_group_permutations(grid, params.P_vec)
    assert len(perms) == 4
    b = build_basis(grid.n_modes, 3)
    H = assemble(nelson_hamiltonian(params, grid), b).tocsr()
    bound = 4 * np.finfo(float).eps * abs(H).max()
    for perm in perms:
        u = b.permutation(perm)
        assert abs(H[u][:, u] - H).max() <= bound
