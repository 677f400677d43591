"""Finite-difference verification of the analytic momentum-derivative
formulas, against the frozen-dressing eigenvalue family they differentiate."""

from types import SimpleNamespace

import numpy as np
import pytest

from nelsonlab import derivatives as dv
from nelsonlab import dressing, multiscale
from nelsonlab.cli import main
from nelsonlab.dressing import dressed_ground_state
from nelsonlab.fiberop import assemble, transformed_hamiltonian
from nelsonlab.fock import build_basis
from nelsonlab.grid import ModelParams
from nelsonlab.spectral import ground_state, solve_reduced_resolvent

from helpers import random_momentum_grid


@pytest.fixture(scope="module")
def setup():
    grid = random_momentum_grid(np.random.default_rng(42), n_modes=5,
                                sigma=0.15, kappa=1.0)
    params = ModelParams(coupling=0.2, sigma=0.15, P=(0.08, 0.0, 0.03))
    basis = build_basis(5, 3)
    state = dressed_ground_state(params, grid, basis)

    def family(P):
        """Energy and aligned ground vector of the frozen-dressing family."""
        op = transformed_hamiltonian(params.with_P(tuple(P)), grid, state.grad_e)
        rec = ground_state(assemble(op, basis))
        v = rec.vector if rec.vector @ state.phi >= 0 else -rec.vector
        return rec.energy, v

    return state, family


def observed_orders(errs):
    return [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


def test_family_base_point_consistency(setup):
    state, family = setup
    E0, phi0 = family(state.params.P_vec)
    assert E0 == state.energy_w
    assert np.linalg.norm(phi0 - state.phi) < 1e-12


def test_gradient_formula_fd_order(setup):
    state, family = setup
    P0 = state.params.P_vec
    g = dv.grad_E_dressed(state)
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        fd = np.zeros(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[j] = (family(P0 + e)[0] - family(P0 - e)[0]) / (2 * h)
        errs.append(np.abs(fd - g).max())
    assert errs[-1] < 1e-7
    assert all(p > 1.9 for p in observed_orders(errs))


def test_hessian_formula_fd_order(setup):
    state, family = setup
    P0 = state.params.P_vec
    E0 = state.energy_w
    Hf = dv.hessian_E(state)
    assert np.allclose(Hf, Hf.T, atol=1e-14)
    errs = []
    for h in (8e-3, 4e-3, 2e-3):
        fd = np.zeros((3, 3))
        for i in range(3):
            ei = np.zeros(3)
            ei[i] = h
            fd[i, i] = (family(P0 + ei)[0] - 2 * E0 + family(P0 - ei)[0]) / h**2
            for j in range(i + 1, 3):
                ej = np.zeros(3)
                ej[j] = h
                fd[i, j] = fd[j, i] = (family(P0 + ei + ej)[0]
                                       - family(P0 + ei - ej)[0]
                                       - family(P0 - ei + ej)[0]
                                       + family(P0 - ei - ej)[0]) / (4 * h**2)
        errs.append(np.abs(fd - Hf).max())
    assert errs[-1] < 5e-7
    assert all(p > 1.9 for p in observed_orders(errs))


def test_third_derivative_fd_order(setup):
    state, family = setup
    P0 = state.params.P_vec
    n = dv.radial_direction(state)
    d3 = dv.third_derivative_E(state)
    errs = []
    for h in (0.02, 0.01, 0.005):
        pts = [family(P0 + s * h * n)[0] for s in (2, 1, -1, -2)]
        fd = (pts[0] - 2 * pts[1] + 2 * pts[2] - pts[3]) / (2 * h**3)
        errs.append(abs(fd - d3))
    assert errs[-1] < 2e-7
    assert all(p > 1.9 for p in observed_orders(errs))


def test_phi_first_derivative_fd_order(setup):
    state, family = setup
    P0 = state.params.P_vec
    U = dv.phi_first_derivatives(state)
    # gauge: no component along phi
    assert np.abs(state.phi @ U).max() < 1e-10
    for j in (0, 2):
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            e = np.zeros(3)
            e[j] = h
            fd = (family(P0 + e)[1] - family(P0 - e)[1]) / (2 * h)
            errs.append(np.linalg.norm(fd - U[:, j]))
        assert errs[-1] < 1e-7
        assert all(p > 1.9 for p in observed_orders(errs))


def test_phi_second_derivative_fd_order(setup):
    state, family = setup
    P0 = state.params.P_vec
    phi0 = state.phi

    S = dv.phi_second_derivative(state, 0, 0)
    errs = []
    for h in (0.02, 0.01, 0.005):
        e = np.zeros(3)
        e[0] = h
        fd = (family(P0 + e)[1] - 2 * phi0 + family(P0 - e)[1]) / h**2
        errs.append(np.linalg.norm(fd - S))
    assert errs[-1] < 2e-6
    assert all(p > 1.8 for p in observed_orders(errs))

    S = dv.phi_second_derivative(state, 0, 2)
    errs = []
    for h in (0.02, 0.01, 0.005):
        e0 = np.zeros(3)
        e0[0] = h
        e2 = np.zeros(3)
        e2[2] = h
        fd = (family(P0 + e0 + e2)[1] - family(P0 + e0 - e2)[1]
              - family(P0 - e0 + e2)[1] + family(P0 - e0 - e2)[1]) / (4 * h**2)
        errs.append(np.linalg.norm(fd - S))
    assert errs[-1] < 2e-6
    assert all(p > 1.8 for p in observed_orders(errs))


def test_second_derivative_symmetry(setup):
    state, _ = setup
    S02 = dv.phi_second_derivative(state, 0, 2)
    S20 = dv.phi_second_derivative(state, 2, 0)
    assert np.linalg.norm(S02 - S20) < 1e-12


def test_radial_hessian_never_exceeds_one():
    grid = random_momentum_grid(np.random.default_rng(9), n_modes=6,
                                sigma=0.12, kappa=1.0)
    basis = build_basis(6, 3)
    rng = np.random.default_rng(100)
    for lam in (0.1, 0.25, 0.4):
        params = ModelParams(coupling=lam, sigma=0.12, P=(0.1, 0.02, 0.0))
        st = dressed_ground_state(params, grid, basis)
        Hf = dv.hessian_E(st)
        assert np.max(np.linalg.eigvalsh(Hf)) <= 1.0 + 1e-8
        for _ in range(5):
            n = rng.standard_normal(3)
            assert dv.directional_hessian(st, n) <= 1.0 + 1e-8


def test_lambda_zero_closed_forms(setup):
    grid = setup[0].grid
    params = ModelParams(coupling=0.0, sigma=0.15, P=(0.08, 0.0, 0.03))
    st = dressed_ground_state(params, grid, build_basis(5, 3))
    assert np.linalg.norm(dv.hessian_E(st) - np.eye(3)) < 1e-12
    assert abs(dv.third_derivative_E(st)) < 1e-12
    assert np.linalg.norm(dv.phi_first_derivatives(st)) < 1e-12
    norms = dv.scaling_norms(st)
    assert norms["n0"] < 1e-12 and norms["n1"] < 1e-12


def test_gradient_defect_correction_small(setup):
    state, _ = setup
    g = dv.grad_E_dressed(state)
    assert np.linalg.norm(g - state.grad_e) <= \
        state.diagnostics["grad_defect_norm"] + 1e-14


def test_scaling_norms_positive(setup):
    state, _ = setup
    norms = dv.scaling_norms(state)
    assert norms["n0"] > 0 and norms["n1"] > 0 and norms["n2"] > 0
    # Cauchy-Schwarz ties the hessian drop to the first chain norm
    n = dv.radial_direction(state)
    drop = 1.0 - dv.directional_hessian(state, n)
    G = n[0] * state.gamma[0] + n[1] * state.gamma[1] + n[2] * state.gamma[2]
    assert drop <= 2.0 * norms["n0"] * np.linalg.norm(G @ state.phi) + 1e-12


def test_derivative_stages_make_five_reduced_solves(tmp_path, monkeypatch):
    """The three columns R0 Gamma_i phi fix every first-order quantity and,
    by the 2n+1 rule, the third derivative; only the two higher chain norms
    solve again."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_reduced_resolvent(*args, **kwargs)

    for mod in (dressing, dv):
        monkeypatch.setattr(mod, "solve_reduced_resolvent", counting)
    grid = random_momentum_grid(np.random.default_rng(42), n_modes=5,
                                sigma=0.15, kappa=1.0)
    params = ModelParams(coupling=0.2, sigma=0.15, P=(0.08, 0.0, 0.03))
    state = dressed_ground_state(params, grid, build_basis(5, 3))
    assert calls == []
    multiscale._derivative_quantities(state, SimpleNamespace())
    assert len(calls) == 5

    calls.clear()
    assert main(["derivatives", "--sigma", "0.25", "--P=0.1,0.05,0.02",
                 "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 5
