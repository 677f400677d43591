"""Tests for photon wavefunction extraction, resolvent-chain formulas, the
permutation-sum identity, the f^1 envelope constant, and the
second-P-derivative cancellation demonstration."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from nelsonlab import wavefunctions as wf
from nelsonlab.dressing import dressed_ground_state
from nelsonlab.fiberop import momentum_shift_diagonal
from nelsonlab.fock import apply_displacement, build_basis
from nelsonlab.grid import GridSpec, ModelParams, build_grid, form_factor
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


def _fresh(bg):
    """The same ground state with an empty chain cache."""
    return wf.BareGround(bg.params, bg.grid, bg.basis, bg.split, bg.energy, bg.psi)


def test_chains_share_prefixes_across_q(three_mode, solves):
    """The ordering sum of a mode multiset reads the sums of its
    sub-multisets: f^2 sums start from f^1 solves, f^3 sums from f^2 sums,
    and each multiset costs one solve, however many orderings it has; the
    values are those of a cold cache bit for bit."""
    bg = _fresh(three_mode)
    runs = [(wf.froehlich_f1, None), (wf.froehlich_fq, (0, 1)),
            (wf.froehlich_fq, (0, 0, 1))]
    counts = []
    for fn, modes in runs:
        before = len(solves)
        val = fn(bg) if modes is None else fn(bg, modes)
        counts.append(len(solves) - before)
        cold = fn(_fresh(bg)) if modes is None else fn(_fresh(bg), modes)
        assert np.all(val == cold)
    assert counts == [3, 1, 2]


def test_chain_cache_is_keyed_by_tol(three_mode, solves):
    bg = _fresh(three_mode)
    wf.froehlich_fq(bg, (0, 1))
    assert len(solves) == 3
    wf.froehlich_fq(bg, (0, 1))
    assert len(solves) == 3
    wf.froehlich_fq(bg, (0, 1), tol=1e-9)
    assert len(solves) == 6


def test_chains_are_contiguous_float_vectors(three_mode):
    bg = _fresh(three_mode)
    wf.froehlich_f1(bg)
    wf.froehlich_fq(bg, (0, 1, 2))
    wf.froehlich_fq(bg, (1, 1))
    assert len(bg.chains) == 3 + 3 + 1 + 1
    for value in bg.chains.values():
        assert value.ndim == 1 and value.dtype == np.float64
        assert value.flags.c_contiguous


def test_shifted_solves_receive_the_split_built_once(three_mode, solves):
    bg = _fresh(three_mode)
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
    value = wf.froehlich_fq(_fresh(three_mode), modes)
    assert abs(value - explicit_ordering_fq(three_mode, modes)) < 1e-12


def test_unsorted_modes_reuse_the_sorted_sum(three_mode, solves):
    bg = _fresh(three_mode)
    value = wf.froehlich_fq(bg, (0, 1))
    before = len(solves)
    assert wf.froehlich_fq(bg, (1, 0)) == value
    assert len(solves) == before


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
