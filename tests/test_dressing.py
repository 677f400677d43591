"""Tests for the coherent-dressing pipeline: Hellmann-Feynman gradients,
dressed-frame consistency, and the photon-emission dispersion probe."""

import numpy as np
import pytest

from nelsonlab import dressing, spectral
from nelsonlab.dressing import (
    dispersion_probe,
    dressed_ground_state,
    hellmann_feynman_gradient,
)
from nelsonlab.fiberop import assemble, momentum_shift_diagonal, nelson_hamiltonian
from nelsonlab.fock import build_basis
from nelsonlab.grid import (
    GridSpec,
    ModelParams,
    build_grid,
    point_group_permutations,
)
from nelsonlab.spectral import SchurSplit, ground_state

from helpers import random_momentum_grid, toy_grid


@pytest.fixture(scope="module")
def grid5():
    return random_momentum_grid(np.random.default_rng(42), n_modes=5,
                                sigma=0.15, kappa=1.0)


def test_lambda_zero_everything_exact(grid5):
    params = ModelParams(coupling=0.0, sigma=0.15, P=(0.08, 0.0, 0.03))
    st = dressed_ground_state(params, grid5, build_basis(5, 3))
    p2 = 0.5 * float(params.P_vec @ params.P_vec)
    assert abs(st.energy - p2) < 1e-14
    assert abs(st.energy_w - p2) < 1e-14
    assert np.linalg.norm(st.grad_e - params.P_vec) < 1e-13
    assert not np.any(st.h)
    e0 = np.zeros(st.basis.dim)
    e0[0] = 1.0
    assert np.linalg.norm(st.psi - e0) < 1e-12
    assert st.diagnostics["energy_mismatch"] < 1e-13
    assert st.diagnostics["dressing_defect"] < 1e-12
    assert st.diagnostics["grad_defect_norm"] < 1e-12


def test_gradient_matches_finite_differences():
    grid = random_momentum_grid(np.random.default_rng(7), n_modes=6,
                                sigma=0.2, kappa=1.0)
    basis = build_basis(6, 3)
    params = ModelParams(coupling=0.3, sigma=0.2, P=(0.1, 0.0, 0.05))
    st = dressed_ground_state(params, grid, basis)

    def energy_at(P):
        pp = ModelParams(coupling=0.3, sigma=0.2, P=tuple(P))
        return ground_state(assemble(nelson_hamiltonian(pp, grid), basis)).energy

    step = 1e-4
    for j in range(3):
        Pp = np.array(params.P_vec)
        Pm = Pp.copy()
        Pp[j] += step
        Pm[j] -= step
        fd = (energy_at(Pp) - energy_at(Pm)) / (2.0 * step)
        assert abs(fd - st.grad_e[j]) < 1e-8


def test_diagnostics_converge_with_photon_cap(grid5):
    params = ModelParams(coupling=0.1, sigma=0.15, P=(0.08, 0.0, 0.03))
    mism, ddef, gdef = [], [], []
    for cap in (2, 3, 4, 5):
        st = dressed_ground_state(params, grid5, build_basis(5, cap))
        mism.append(st.diagnostics["energy_mismatch"])
        ddef.append(st.diagnostics["dressing_defect"])
        gdef.append(st.diagnostics["grad_defect_norm"])
    # truncation is the only obstruction: every defect dies as the cap grows
    assert all(a > b for a, b in zip(mism, mism[1:]))
    assert all(a > b for a, b in zip(ddef, ddef[1:]))
    assert all(a > b for a, b in zip(gdef, gdef[1:]))
    assert mism[-1] < 1e-8
    assert ddef[-1] < 5e-5
    assert gdef[-1] < 1e-7


def test_dressing_overlap_near_unity(grid5):
    params = ModelParams(coupling=0.1, sigma=0.15, P=(0.08, 0.0, 0.03))
    st = dressed_ground_state(params, grid5, build_basis(5, 4))
    assert st.diagnostics["dressing_overlap"] > 1.0 - 1e-8
    assert st.gap_w > 0.2


def test_alpha_violation_raises():
    grid = toy_grid([(0.5, 0.0, 0.0), (0.0, 0.3, 0.0)], [0.02, 0.02],
                    sigma=0.2, kappa=1.0)
    params = ModelParams(coupling=0.05, sigma=0.2, P=(1.6, 0.0, 0.0))
    with pytest.raises(ValueError, match="alpha"):
        dressed_ground_state(params, grid, build_basis(2, 3))


def test_hellmann_feynman_direct(grid5):
    # independent of the pipeline: gradient formula on an explicit eigenvector
    params = ModelParams(coupling=0.2, sigma=0.15, P=(0.05, 0.02, 0.0))
    basis = build_basis(5, 3)
    H = assemble(nelson_hamiltonian(params, grid5), basis)
    rec = ground_state(H)
    g = hellmann_feynman_gradient(params, grid5, basis, rec.vector)
    assert g.shape == (3,)
    assert np.linalg.norm(g) < np.linalg.norm(params.P_vec) + 0.1


def test_dispersion_probe_lambda_zero_closed_form(grid5):
    params = ModelParams(coupling=0.0, sigma=0.15, P=(0.08, 0.0, 0.03))
    basis = build_basis(5, 2)
    H = assemble(nelson_hamiltonian(params, grid5), basis)
    deficit, ratios, idx = dispersion_probe(params, grid5, basis,
                                            split=SchurSplit(H),
                                            energy=ground_state(H).energy)
    P = params.P_vec
    exact = np.array([(P @ grid5.k[m] - 0.5 * grid5.r[m] ** 2) / grid5.r[m]
                      for m in idx])
    assert np.max(np.abs(ratios - exact)) < 1e-12
    assert abs(deficit - np.max(exact)) < 1e-12


def test_dispersion_probe_small_coupling_deficit(grid5):
    params = ModelParams(coupling=0.05, sigma=0.15, P=(1.0 / 6.0, 0.0, 0.0))
    basis = build_basis(5, 3)
    st = dressed_ground_state(params, grid5, basis)
    deficit, ratios, _ = dispersion_probe(params, grid5, basis,
                                          split=st.split, energy=st.energy)
    assert deficit < 0.25
    assert len(ratios) == 5
    assert abs(st.grad_norm - 1.0 / 6.0) < 0.05


def test_dispersion_probe_subsampling(grid5):
    params = ModelParams(coupling=0.0, sigma=0.15, P=(0.0, 0.0, 0.0))
    basis = build_basis(5, 2)
    H = assemble(nelson_hamiltonian(params, grid5), basis)
    deficit, ratios, idx = dispersion_probe(params, grid5, basis,
                                            split=SchurSplit(H),
                                            energy=ground_state(H).energy,
                                            max_probes=2)
    assert len(idx) <= 3 and len(ratios) == len(idx)
    # P = 0: every ratio is -|k|/2 < 0
    assert deficit < 0.0


def probe_instance(case):
    """Bare probe setting below DENSE_CUTOFF (the sweep's mirror-symmetric
    scale-1 grid, dim 190) or past it: 16 random modes at cap 3 (dim 969,
    head 153, within the cutoff), or a mirror-symmetric grid of 8 modes at
    cap 5 (dim 1,287, head 495, past it)."""
    if case == "below_cutoff":
        params = ModelParams(coupling=0.1, sigma=0.5, P=(1.0 / 6.0, 0.0, 0.0))
        grid, cap = build_grid(params, GridSpec(4, 3, 3)), 2
    elif case == "past_cutoff":
        params = ModelParams(coupling=0.4, sigma=0.1, P=(0.05, 0.0, 0.02))
        grid = random_momentum_grid(np.random.default_rng(1234), n_modes=16,
                                    sigma=0.1, kappa=1.0)
        cap = 3
    else:
        params = ModelParams(coupling=0.4, sigma=0.5, P=(1.0 / 6.0, 0.0, 0.0))
        grid, cap = build_grid(params, GridSpec(1, 2, 4)), 5
    basis = build_basis(grid.n_modes, cap)
    return params, grid, basis, assemble(nelson_hamiltonian(params, grid), basis)


@pytest.mark.parametrize("case", ["below_cutoff", "past_cutoff",
                                  "past_cutoff_krylov"])
def test_dispersion_probe_solves_one_eigenvalue(case, monkeypatch):
    params, grid, basis, H = probe_instance(case)
    assert (H.shape[0] <= spectral.DENSE_CUTOFF) == (case == "below_cutoff")
    Hd = H.toarray()
    energy = np.linalg.eigvalsh(Hd)[0]
    max_probes = {"below_cutoff": 6, "past_cutoff": 3}.get(case, 8)
    step = int(np.ceil(grid.n_modes / max_probes))
    exact = np.array([
        (energy - np.linalg.eigvalsh(Hd + np.diag(momentum_shift_diagonal(
            basis, grid, params.P_vec, params.P_vec - grid.k[m])))[0]) / grid.r[m]
        for m in range(0, grid.n_modes, step)])

    # up to DENSE_CUTOFF a probe is one dense solve for one eigenvalue; past
    # it, with a head of 153 states, the Feshbach-Schur map: no ARPACK call,
    # no LOBPCG, and no dense eigensolve beyond the head; with a head of 495
    # states, one LOBPCG from the vacuum-weighted start on the shifted
    # split, which on the mirror-symmetric grid must still reach the ground
    # state: no ARPACK call, and no dense eigensolve beyond its 3 x 3
    # Rayleigh-Ritz problems.  Every probe reads the one split of H that
    # dispersion_probe is handed, and builds none
    split = SchurSplit(H)
    solves, methods, splits = [], [], []
    real_eigsh, real_eigh, real_np_eigh = spectral.eigsh, spectral.eigh, np.linalg.eigh
    real_ground_state = dressing.ground_state

    def recording_ground_state(*args, **kwargs):
        assert args[0].H is split.H and args[0].K is split.K
        rec = real_ground_state(*args, **kwargs)
        methods.append(rec.method)
        return rec

    def recording_eigsh(A, **kwargs):
        solves.append(("eigsh", kwargs["k"]))
        return real_eigsh(A, **kwargs)

    def recording_eigh(A, **kwargs):
        solves.append(("eigh", A.shape[0], tuple(kwargs["subset_by_index"])))
        return real_eigh(A, **kwargs)

    class RecordingSplit(spectral.SchurSplit):
        def __init__(self, H):
            splits.append(H)
            super().__init__(H)

    def refuse(*args):
        raise AssertionError("LOBPCG in a probe")

    def at_most_3x3(A, *args, **kwargs):
        if np.shape(A)[0] > 3:
            raise AssertionError("dense eigensolve in a LOBPCG probe")
        return real_np_eigh(A, *args, **kwargs)

    monkeypatch.setattr(dressing, "ground_state", recording_ground_state)
    monkeypatch.setattr(dressing, "SchurSplit", RecordingSplit)
    monkeypatch.setattr(spectral, "eigsh", recording_eigsh)
    monkeypatch.setattr(spectral, "eigh", recording_eigh)
    if case == "below_cutoff":
        monkeypatch.setattr(spectral, "_lobpcg", refuse)
        expected, method = {("eigh", basis.dim, (0, 0))}, "dense"
    elif case == "past_cutoff":
        monkeypatch.setattr(spectral, "_lobpcg", refuse)
        head = int(basis.offsets[basis.n_max])
        expected, method = {("eigh", head, (0, 0))}, "feshbach"
    else:
        assert basis.offsets[basis.n_max] > spectral.DENSE_CUTOFF
        assert len(point_group_permutations(grid, params.P_vec)) == 4
        monkeypatch.setattr(np.linalg, "eigh", at_most_3x3)
        expected, method = set(), "lobpcg"
    deficit, ratios, idx = dispersion_probe(params, grid, basis, split, energy,
                                            max_probes=max_probes)
    assert len(idx) == len(exact) and set(solves) == expected
    assert methods and set(methods) == {method}
    assert splits == []
    assert np.max(np.abs(ratios - exact) / np.abs(exact)) < 1e-11
    assert deficit == np.max(ratios)


def test_one_split_serves_the_bare_solve_and_the_probes(monkeypatch):
    # dressed_ground_state splits the bare H once and solves on that split;
    # handed the split, dispersion_probe builds none of its own, and finds
    # what it finds on a split of a freshly assembled H
    params, grid, basis, H = probe_instance("past_cutoff")
    splits = []
    real_init = spectral.SchurSplit.__init__

    def recording_init(self, H):
        splits.append(H.shape[0])
        real_init(self, H)

    monkeypatch.setattr(spectral.SchurSplit, "__init__", recording_init)
    st = dressed_ground_state(params, grid, basis)
    assert splits == [basis.dim]
    assert st.diagnostics["method"] == "feshbach"
    from_split = dispersion_probe(params, grid, basis, st.split, st.energy,
                                  max_probes=3)
    assert splits == [basis.dim]
    from_h = dispersion_probe(params, grid, basis, spectral.SchurSplit(H),
                              st.energy, max_probes=3)
    assert splits == [basis.dim] * 2
    assert from_split[0] == from_h[0]
    assert np.array_equal(from_split[1], from_h[1])


def test_dispersion_probe_on_an_empty_grid(monkeypatch):
    # sigma = kappa leaves no mode: nothing is probed, and the deficit is
    # the maximum over no ratios, -inf
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve on an empty probe set")

    monkeypatch.setattr(dressing, "ground_state", refuse)
    params = ModelParams(coupling=0.1, sigma=1.0, P=(1 / 6, 0.0, 0.0))
    grid = build_grid(params, GridSpec(2, 2, 2))
    basis = build_basis(grid.n_modes, 2)
    assert grid.n_modes == 0 and basis.dim == 1
    H = assemble(nelson_hamiltonian(params, grid), basis)
    deficit, ratios, idx = dispersion_probe(params, grid, basis, SchurSplit(H),
                                            0.0)
    assert deficit == -np.inf
    assert ratios.shape == (0,) and idx.shape == (0,)


def test_dispersion_probe_solves_one_mode_per_orbit(monkeypatch):
    # the scale-1 grid with P on the x axis has the y and z mirrors: probing
    # every mode takes one solve per orbit, and each copied ratio matches a
    # dense eigvalsh at its own mode
    params, grid, basis, H = probe_instance("below_cutoff")
    Hd = H.toarray()
    energy = np.linalg.eigvalsh(Hd)[0]
    exact = np.array([
        (energy - np.linalg.eigvalsh(Hd + np.diag(momentum_shift_diagonal(
            basis, grid, params.P_vec, params.P_vec - grid.k[m])))[0]) / grid.r[m]
        for m in range(grid.n_modes)])

    calls = []
    real_ground_state = dressing.ground_state

    def counting_ground_state(*args, **kwargs):
        calls.append(kwargs["gap"])
        return real_ground_state(*args, **kwargs)

    monkeypatch.setattr(dressing, "ground_state", counting_ground_state)
    deficit, ratios, idx = dispersion_probe(params, grid, basis, SchurSplit(H),
                                            energy, max_probes=grid.n_modes)
    assert np.array_equal(idx, np.arange(grid.n_modes))
    assert np.max(np.abs(ratios - exact) / np.abs(exact)) < 1e-11
    assert deficit == np.max(ratios)
    # 18 modes: two shells of four orbits each, of sizes 4, 2, 2 and 1
    assert calls == [False] * 8 and len(calls) < len(idx)
