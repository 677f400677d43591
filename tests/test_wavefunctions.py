"""Tests for photon wavefunction extraction, resolvent-chain formulas, the
permutation-sum identity, the f^1 envelope constant, and the
second-P-derivative cancellation demonstration."""

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest

from nelsonlab import wavefunctions as wf
from nelsonlab.dressing import dressed_ground_state
from nelsonlab.fiberop import momentum_shift_diagonal
from nelsonlab.fock import FockBasis, apply_displacement, build_basis
from nelsonlab.grid import GridSpec, ModelParams, build_grid, form_factor, \
    point_group_permutations
from nelsonlab.spectral import DENSE_CUTOFF, SchurSplit, solve_shifted

from helpers import basis_states, random_momentum_grid, toy_grid


@pytest.fixture(scope="module")
def two_mode():
    """Two-mode instance deep in the truncation-converged regime."""
    grid = toy_grid([(0.3, 0.1, 0.0), (-0.2, 0.4, 0.1)], [0.05, 0.08],
                    sigma=0.25, kappa=1.0)
    params = ModelParams(coupling=0.35, sigma=0.25, P=(0.1, 0.0, 0.05))
    return wf.BareGround.solve(params, grid, build_basis(2, 14))


@pytest.fixture(scope="module")
def three_mode():
    grid = random_momentum_grid(np.random.default_rng(5), n_modes=3,
                                sigma=0.2, kappa=1.0)
    params = ModelParams(coupling=0.3, sigma=0.2, P=(0.08, 0.02, 0.0))
    return wf.BareGround.solve(params, grid, build_basis(3, 6))


def test_extraction_matches_resolvent_chain_q1(two_mode):
    assert np.abs(wf.extract_f1(two_mode) - wf.froehlich_f1(two_mode)).max() < 1e-12


def test_extraction_matches_resolvent_chain_q2(two_mode):
    table = wf.extract_fq(two_mode, 2)
    for pair in ((0, 0), (0, 1), (1, 1)):
        assert abs(table[pair] - wf.froehlich_fq(two_mode, pair)) < 1e-12


@pytest.fixture
def solves(monkeypatch):
    """List that records every shifted solve the pull-through routines make:
    a call's arguments once per right-hand-side column it solves."""
    calls = []
    original = wf.solve_shifted

    def counting(*args, **kwargs):
        rhs = np.asarray(args[2])
        calls.extend([args] * (1 if rhs.ndim == 1 else rhs.shape[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(wf, "solve_shifted", counting)
    return calls


def test_one_call_solves_each_sub_multiset_once(three_mode, solves):
    """The ordering sum of a mode multiset reads the sums of its
    sub-multisets: the f^2 sum of (0, 1) starts from the f^1 solves, the
    f^3 sum of (0, 0, 1) from the f^2 sums (0, 0) and (0, 1), and each
    multiset costs one column, however many orderings it has.  A value
    does not depend on which tuples share its call or its block."""
    tuples = [(0,), (1,), (2,), (0, 1), (0, 0, 1)]
    values = wf.froehlich_values(three_mode, tuples, 1e-10)
    assert len(solves) == 6
    assert len({id(args) for args in solves}) == 3
    for T, value in zip(tuples, values):
        assert value == wf.froehlich_fq(three_mode, T)


def test_permuted_tuples_are_one_multiset(three_mode, solves):
    assert wf.froehlich_fq(three_mode, (1, 0)) == wf.froehlich_fq(three_mode, (0, 1))
    del solves[:]
    values = wf.froehlich_values(three_mode, [(1, 0), (0, 1)], 1e-10)
    # the singles (0,) and (1,) share one block, then one pair column
    assert len(solves) == 3 and solves[0] is solves[1] is not solves[2]
    assert values[0] == values[1]


def test_calls_share_no_state(three_mode, solves):
    # two identical calls make the same solves, each with the caller's
    # tol, and store nothing on the ground-state bundle
    before = dict(vars(three_mode))
    tuples = [(0, 1), (2,)]
    runs = []
    for tol in (1e-10, 1e-10, 1e-9):
        del solves[:]
        runs.append((wf.froehlich_values(three_mode, tuples, tol), solves[:]))
    (first, calls), (second, again), (_, coarse) = runs
    assert second == first and len(again) == len(calls) == 4
    for a, b in zip(again, calls):
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
    assert [args[3] for args in calls] == [1e-10] * 4
    assert [args[3] for args in coarse] == [1e-9] * 4
    assert vars(three_mode).keys() == before.keys()
    assert all(vars(three_mode)[k] is v for k, v in before.items())


def test_shifted_solves_receive_the_split_built_once(three_mode, solves):
    bg = three_mode
    assert bg.split.split == bg.basis.offsets[bg.basis.n_max]
    wf.froehlich_fq(bg, (0, 1))
    assert len(solves) == 3 and all(args[0] is bg.split for args in solves)


def test_from_state_hands_over_the_scale_split(monkeypatch, solves):
    # a dressed state's bare half keeps the split the scale built; adopting
    # it builds nothing, and its pull-through solves run on that split
    grid = random_momentum_grid(np.random.default_rng(5), n_modes=3,
                                sigma=0.2, kappa=1.0)
    params = ModelParams(coupling=0.3, sigma=0.2, P=(0.08, 0.02, 0.0))
    basis = build_basis(3, 6)
    state = dressed_ground_state(params, grid, basis)
    reference = wf.froehlich_f1(wf.BareGround.solve(params, grid, basis))
    del solves[:]

    def refuse(self, H):
        raise AssertionError("a second split of the bare H")

    monkeypatch.setattr(SchurSplit, "__init__", refuse)
    bg = wf.BareGround.from_state(state)
    assert bg.split is state.split and bg.psi is state.psi
    f1 = wf.froehlich_f1(bg)
    assert solves and all(args[0] is state.split for args in solves)
    assert np.abs(f1 - reference).max() < 1e-12


def explicit_ordering_fq(bg, modes, tol=1e-10):
    """f^q as the sum over all q! orderings of the chains R_q ... R_1 psi,
    one shifted solve per link, with nothing shared."""
    P = bg.params.P_vec
    vac = 0.0
    for order in permutations(modes):
        v, k_sum, freq = bg.psi, np.zeros(3), 0.0
        for m in order:
            k_sum = k_sum + bg.grid.k[m]
            freq += bg.grid.r[m]
            shift = momentum_shift_diagonal(bg.basis, bg.grid, P, P - k_sum)
            v = solve_shifted(bg.split, bg.energy - freq - shift, v, tol)
        vac += v[0]
    ff = float(np.prod(form_factor(bg.grid.k[list(modes)], bg.params)))
    return (-1.0) ** len(modes) * ff * vac / math.sqrt(math.factorial(len(modes)))


@pytest.mark.parametrize("modes", [(0, 1, 2), (0, 0, 1), (1, 1, 1), (1, 0)])
def test_ordering_sum_matches_explicit_orderings(three_mode, modes):
    value = wf.froehlich_fq(three_mode, modes)
    assert abs(value - explicit_ordering_fq(three_mode, modes)) < 1e-12


def extract_fq_reference(bg, q):
    """`extract_fq` as a loop over the basis states."""
    root_q = math.sqrt(math.factorial(q))
    out = {}
    for i, state in enumerate(basis_states(bg.basis.n_modes, bg.basis.n_max)):
        if len(state) != q:
            continue
        val = bg.psi[i] / root_q
        mult = 1
        for m in set(state):
            mult *= math.factorial(state.count(m))
        val *= math.sqrt(mult)
        for m in state:
            val /= math.sqrt(bg.grid.w[m])
        out[state] = float(val)
    return out


@pytest.mark.parametrize("q", [1, 2, 3])
def test_extract_fq_matches_state_loop(three_mode, q):
    table = wf.extract_fq(three_mode, q)
    reference = extract_fq_reference(three_mode, q)
    assert list(table) == list(reference)
    assert list(table.values()) == list(reference.values())


def test_contamination_dies_with_cap(two_mode):
    """Pull-through is exact only without truncation; the disagreement must
    shrink as the photon cap grows."""
    errs = []
    for cap in (4, 6, 8):
        bg = wf.BareGround.solve(two_mode.params, two_mode.grid,
                                 build_basis(2, cap))
        errs.append(np.abs(wf.extract_f1(bg) - wf.froehlich_f1(bg)).max())
    assert errs[0] > errs[1] > errs[2]


def test_coherent_state_extraction_closed_form():
    """Extraction against an expm-generated displaced vacuum, whose photon
    wavefunctions are products of the displacement amplitudes."""
    grid = random_momentum_grid(np.random.default_rng(3), n_modes=3,
                                sigma=0.2, kappa=1.0)
    basis = build_basis(3, 6)
    delta = np.array([0.15, -0.1, 0.08])
    vac = np.zeros(basis.dim)
    vac[0] = 1.0
    coh = apply_displacement(basis, delta, vac)
    bg = wf.BareGround(ModelParams(coupling=0.2, sigma=0.2), grid, basis,
                       None, 0.0, coh)
    pref = math.exp(-0.5 * float(delta @ delta))
    f1 = wf.extract_f1(bg)
    assert np.abs(f1 + pref * delta / np.sqrt(grid.w)).max() < 1e-12
    table = wf.extract_fq(bg, 2)
    o01 = pref * delta[0] * delta[1] / math.sqrt(2 * grid.w[0] * grid.w[1])
    assert abs(table[(0, 1)] - o01) < 1e-12
    o00 = pref * delta[0] ** 2 / (math.sqrt(2) * grid.w[0])
    assert abs(table[(0, 0)] - o00) < 1e-12


def test_lambda_zero_f1_vanishes(three_mode):
    params = ModelParams(coupling=0.0, sigma=0.2)
    bg = wf.BareGround.solve(params, three_mode.grid, three_mode.basis)
    assert not np.any(wf.extract_f1(bg))
    assert not np.any(wf.froehlich_f1(bg))


def test_lambda_zero_ground_state_is_the_vacuum_past_cutoff(three_mode):
    # past the dense cutoff, too, the coupling-0 ground vector is the vacuum
    # with exact zeros elsewhere
    params = ModelParams(coupling=0.0, sigma=0.2)
    basis = build_basis(3, 12)
    assert basis.dim > DENSE_CUTOFF
    bg = wf.BareGround.solve(params, three_mode.grid, basis)
    assert bg.psi[0] == 1.0 and not np.any(bg.psi[1:])
    assert not np.any(wf.extract_f1(bg))
    assert not np.any(wf.froehlich_f1(bg))


def test_permutation_identity_exact_rational():
    for a in ([Fraction(3, 7), Fraction(1, 2), Fraction(5, 3)],
              [Fraction(3, 7), Fraction(1, 2), Fraction(5, 3), Fraction(2, 9)],
              [2, 3, 5, 7, 11]):
        lhs = wf.permutation_tail_sum(a)
        rhs = Fraction(1)
        for x in a:
            rhs /= Fraction(x)
        assert lhs == rhs


def test_permutation_identity_float_gap():
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = int(rng.integers(2, 7))
        vals = rng.uniform(0.05, 2.0, q)
        assert wf.permutation_identity_gap(vals) < 1e-12


def test_bound_constant_sane(three_mode):
    c, ratios = wf.bound_constant_f1(three_mode, wf.extract_f1(three_mode))
    assert ratios.shape == (3,)
    assert np.all(ratios >= 0.0)
    assert c == ratios.max()
    assert 0.05 < c < 10.0


# ---------------------------------------------------------------------------
# cancellation of the |k|^{-2} pole terms in d^2_P f^1


def test_cancellation_demo_pole_terms():
    params = ModelParams(coupling=0.1, P=(1 / 6, 0.0, 0.0), kappa=1.0,
                         sigma=0.03, alpha_bar=0.0)
    grid = build_grid(params, GridSpec(4, 3, 3))
    basis = build_basis(grid.n_modes, 2)
    outer = wf.cancellation_demo(params, grid, basis, (0.2, 0.0, 0.0))
    inner = wf.cancellation_demo(params, grid, basis, (0.1, 0.0, 0.0))

    for out in (outer, inner):
        # the exact five-term expansion reproduces the finite difference
        assert abs(out["d2_exact"] - out["d2_fd"]) < 1e-4 * abs(out["d2_fd"])
        # each pole term dwarfs the sum
        assert out["cancellation_ratio"] < 0.25
        assert abs(out["T2"] - out["T3"]) == 0.0

    # individual terms blow up at least like the squared scalar resolvent
    growth = abs(inner["T1"]) / abs(outer["T1"])
    assert growth > (outer["resolvent_scale"] / inner["resolvent_scale"]) ** -2
    assert growth > 4.0
    # ...but the sum gains a power of |k|: the ratio drops ~linearly
    assert inner["cancellation_ratio"] < 0.6 * outer["cancellation_ratio"]


# ---------------------------------------------------------------------------
# one solve per orbit of the point group that fixes P


@pytest.fixture(scope="module")
def symmetric():
    """GridSpec(2, 3, 3) with P on the x axis: 9 modes in 4 orbits of a
    point group of order 4; cap 3, dim 220."""
    params = ModelParams(coupling=0.3, sigma=0.5, P=(1 / 6, 0.0, 0.0))
    grid = build_grid(params, GridSpec(2, 3, 3))
    bg = wf.BareGround.solve(params, grid, build_basis(grid.n_modes, 3))
    perms = point_group_permutations(grid, params.P_vec)
    assert grid.n_modes == 9 and len(perms) == 4
    return bg, perms


def all_tuples(n_modes, q_max):
    return [T for q in range(1, q_max + 1)
            for T in combinations_with_replacement(range(n_modes), q)]


def chain_sum(bg, T, memo, tol=1e-10):
    """S(T) = R(T) sum_p S(T - p) with one `solve_shifted` per sorted
    sub-multiset and no symmetry; memo starts as {(): psi}."""
    if T not in memo:
        P = bg.params.P_vec
        k_sum = bg.grid.k[list(T)].sum(axis=0)
        shift = momentum_shift_diagonal(bg.basis, bg.grid, P, P - k_sum)
        rhs = sum(chain_sum(bg, T[:p] + T[p + 1:], memo, tol) for p in range(len(T)))
        memo[T] = solve_shifted(bg.split, bg.energy - bg.grid.r[list(T)].sum() - shift,
                                rhs, tol)
    return memo[T]


def test_orbit_walk_matches_per_tuple_chains(symmetric):
    bg, _ = symmetric
    tuples = all_tuples(bg.grid.n_modes, 3)
    values = wf.froehlich_values(bg, tuples, 1e-10)
    memo = {(): bg.psi}
    for T, value in zip(tuples, values):
        q = len(T)
        ff = float(np.prod(form_factor(bg.grid.k[list(T)], bg.params)))
        want = (-1.0) ** q * ff * chain_sum(bg, T, memo)[0] / math.sqrt(math.factorial(q))
        assert abs(value - want) <= 1e-13 * abs(want), T


def orbit_of(T, perms):
    return frozenset(tuple(sorted(int(p[m]) for m in T)) for p in perms)


def test_orbit_members_share_the_vacuum_component(symmetric, monkeypatch):
    # with unit form factors, f^q(T) is the vacuum component of S(T) up to
    # the sign and sqrt(q!), which the members of an orbit share
    bg, perms = symmetric
    monkeypatch.setattr(wf, "form_factor", lambda k, params: np.ones(len(k)))
    tuples = all_tuples(bg.grid.n_modes, 3)
    by_orbit = {}
    for T, value in zip(tuples, wf.froehlich_values(bg, tuples, 1e-10)):
        by_orbit.setdefault(orbit_of(T, perms), set()).add(value)
    assert any(len(orbit) > 1 for orbit in by_orbit)
    assert all(len(values) == 1 for values in by_orbit.values())


def test_single_tuple_calls_repeat_the_batched_bits(symmetric):
    bg, _ = symmetric
    tuples = [(0,), (8,), (1, 2), (2, 1), (0, 5, 7), (3, 3, 6), (2, 4, 4)]
    values = wf.froehlich_values(bg, tuples, 1e-10)
    assert [wf.froehlich_fq(bg, T) for T in tuples] == values


def test_orbit_walk_solves_one_column_per_orbit(symmetric, solves):
    bg, perms = symmetric
    tuples = all_tuples(bg.grid.n_modes, 2) + [(0, 1, 2), (4, 4, 8), (2, 3, 7)]
    wf.froehlich_values(bg, tuples, 1e-10)
    subsets = {S for T in tuples for q in range(1, len(T) + 1)
               for S in combinations(T, q)}
    orbits = {orbit_of(S, perms) for S in subsets}
    assert len(solves) == len(orbits) < len(subsets)


def test_trivial_group_solves_every_sub_multiset(solves, monkeypatch):
    # P off the axes, P_z != 0: no symmetry of the grid fixes P, every
    # sub-multiset is solved, and no state map is built
    params = ModelParams(coupling=0.3, sigma=0.5, P=(0.1, 0.05, 0.02))
    grid = build_grid(params, GridSpec(2, 3, 3))
    assert len(point_group_permutations(grid, params.P_vec)) == 1
    bg = wf.BareGround.solve(params, grid, build_basis(grid.n_modes, 3))

    def refuse(self, perm):
        raise AssertionError("a state map for the trivial group")

    monkeypatch.setattr(FockBasis, "permutation", refuse)
    tuples = all_tuples(grid.n_modes, 2) + [(0, 1, 2), (4, 4, 8)]
    values = wf.froehlich_values(bg, tuples, 1e-10)
    subsets = {S for T in tuples for q in range(1, len(T) + 1)
               for S in combinations(T, q)}
    assert len(solves) == len(subsets)
    memo = {(): bg.psi}
    for T, value in zip(tuples, values):
        q = len(T)
        ff = float(np.prod(form_factor(bg.grid.k[list(T)], bg.params)))
        want = (-1.0) ** q * ff * chain_sum(bg, T, memo)[0] / math.sqrt(math.factorial(q))
        assert abs(value - want) <= 1e-13 * abs(want), T


def test_a_map_that_moves_the_diagonal_is_refused(symmetric, monkeypatch):
    bg, _ = symmetric
    original = FockBasis.permutation

    def corrupted(self, perm):
        u = original(self, perm).copy()
        u[[1, 2]] = u[[2, 1]]  # two one-photon states of unequal energy
        return u

    monkeypatch.setattr(FockBasis, "permutation", corrupted)
    with pytest.raises(ArithmeticError, match="point-group element"):
        wf.froehlich_values(bg, all_tuples(bg.grid.n_modes, 2), 1e-10)
