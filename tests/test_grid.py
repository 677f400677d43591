import math

import numpy as np
import pytest

from nelsonlab.grid import (GridSpec, ModelParams, build_grid, cutoff_chi,
                            form_factor, point_group_permutations,
                            refine_annulus)


def test_annulus_volume_exact():
    params = ModelParams(sigma=0.05, kappa=1.0)
    grid = build_grid(params, GridSpec(shells_per_decade=4, n_polar=4, n_azimuthal=4))
    vol = 4.0 * math.pi / 3.0 * (params.kappa**3 - params.sigma**3)
    assert abs(grid.w.sum() - vol) <= 1e-10 * vol


def test_mode_count_product_structure():
    spec = GridSpec(shells_per_decade=3, n_polar=4, n_azimuthal=5)
    grid = build_grid(ModelParams(sigma=0.1, kappa=1.0), spec)
    n_shells = len(grid.shell_bounds)
    assert n_shells == math.ceil(3 * math.log10(1.0 / 0.1))
    assert grid.n_modes == n_shells * spec.n_polar * spec.n_azimuthal


def test_radial_linear_integrand_exact():
    # the volume-centroid node makes integrals of |k| exact per shell:
    # integral of |k| over the annulus = pi (kappa^4 - sigma^4)
    params = ModelParams(sigma=0.2, kappa=1.0)
    grid = build_grid(params, GridSpec(2, 3, 4))
    exact = math.pi * (params.kappa**4 - params.sigma**4)
    assert abs(float(np.sum(grid.w * grid.r)) - exact) <= 1e-12 * exact


def test_angular_second_moment():
    # Gauss-Legendre in cos(theta) integrates cos^2 exactly: mean of
    # (k_z/|k|)^2 over the sphere is 1/3
    grid = build_grid(ModelParams(sigma=0.3, kappa=1.0), GridSpec(2, 4, 4))
    mean = float(np.sum(grid.w * (grid.k[:, 2] / grid.r) ** 2) / grid.w.sum())
    assert abs(mean - 1.0 / 3.0) <= 1e-12


def test_cutoff_chi_plateau_bridge_tail():
    kappa, eps0 = 1.0, 0.2
    assert cutoff_chi(0.5, kappa, eps0) == 1.0
    assert cutoff_chi(0.79, kappa, eps0) == 1.0
    assert abs(cutoff_chi(0.8, kappa, eps0) - 1.0) <= 1e-12  # join point
    assert cutoff_chi(1.0, kappa, eps0) == 0.0
    assert cutoff_chi(1.3, kappa, eps0) == 0.0
    r = np.linspace(0.8, 1.0, 50)
    vals = cutoff_chi(r, kappa, eps0)
    assert np.all(np.diff(vals) <= 1e-15)  # monotone bridge
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cutoff_chi_c2_at_joins():
    # quintic bridge: first and second derivative vanish at both ends, so
    # the profile leaves its plateau and reaches zero cubically,
    # within 10 (h / width)^3 at depth h into the bridge
    kappa, eps0 = 1.0, 0.2
    for h in (1e-2, 1e-3):
        bound = 10.0 * (h / 0.2) ** 3
        assert 0.0 <= 1.0 - cutoff_chi(0.8 + h, kappa, eps0) <= bound
        assert 0.0 <= cutoff_chi(1.0 - h, kappa, eps0) <= bound


def test_form_factor_point_value():
    # coupling 0.1, flat exponent, |k| = 0.5 inside the plateau:
    # v = 0.1 / sqrt(2 * 0.5) = 0.1
    params = ModelParams(coupling=0.1, alpha_bar=0.0, sigma=0.01, kappa=1.0, epsilon0=0.2)
    assert abs(form_factor(np.array([0.5, 0.0, 0.0]), params) - 0.1) <= 1e-15


def test_form_factor_support():
    params = ModelParams(coupling=0.3, sigma=0.2, kappa=1.0)
    assert form_factor(np.array([0.0, 0.19, 0.0]), params) == 0.0  # below IR cutoff
    assert form_factor(np.array([1.01, 0.0, 0.0]), params) == 0.0  # above UV cutoff
    assert form_factor(np.array([0.0, 0.0, 0.3]), params) > 0.0


def test_form_factor_alpha_half_is_flat():
    # alpha_bar = 1/2 cancels the square root: v = coupling/sqrt(2) on plateau
    params = ModelParams(coupling=0.2, alpha_bar=0.5, sigma=0.05, kappa=1.0)
    for r in (0.1, 0.3, 0.7):
        v = form_factor(np.array([r, 0.0, 0.0]), params)
        assert abs(v - 0.2 / math.sqrt(2.0)) <= 1e-14


def test_form_factor_widened_support():
    params = ModelParams(coupling=0.1, sigma=0.05, kappa=1.0, epsilon0=0.2)
    k = np.array([1.1, 0.0, 0.0])  # above kappa but below kappa/(1-eps0) = 1.25
    assert form_factor(k, params) == 0.0
    assert form_factor(k, params, widened=True) > 0.0


def test_empty_grid_at_sigma_equals_kappa():
    grid = build_grid(ModelParams(sigma=1.0, kappa=1.0))
    assert grid.n_modes == 0
    assert grid.w.sum() == 0.0


def test_refine_keeps_parent_prefix():
    params = ModelParams(sigma=0.5, kappa=1.0)
    spec = GridSpec(4, 4, 4)
    parent = build_grid(params, spec)
    child = refine_annulus(parent, 0.25)
    n = parent.n_modes
    assert child.n_modes > n
    assert np.array_equal(child.k[:n], parent.k)
    assert np.array_equal(child.w[:n], parent.w)
    assert np.array_equal(child.shell[:n], parent.shell)
    assert child.sigma == 0.25
    # refined volume is exact for the larger annulus
    vol = 4.0 * math.pi / 3.0 * (1.0 - 0.25**3)
    assert abs(child.w.sum() - vol) <= 1e-10 * vol
    # new shells cover [0.25, 0.5) only
    new_r = child.r[n:]
    assert np.all(new_r < 0.5) and np.all(new_r > 0.25)


def test_refine_chain_matches_repeated_refine():
    params = ModelParams(sigma=0.5, kappa=1.0)
    g1 = build_grid(params, GridSpec(4, 2, 2))
    g2 = refine_annulus(g1, 0.25)
    g3 = refine_annulus(g2, 0.125)
    assert np.array_equal(g3.k[: g2.n_modes], g2.k)
    assert g3.sigma == 0.125
    assert len(g3.shell_bounds) == len(g2.shell_bounds) + len(g3.shell_bounds) - len(g2.shell_bounds)
    assert np.all(np.diff([b[0] for b in g3.shell_bounds[len(g1.shell_bounds):]]) != 0)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(sigma=0.0)
    with pytest.raises(ValueError):
        ModelParams(sigma=1.5, kappa=1.0)
    with pytest.raises(ValueError):
        ModelParams(alpha_bar=0.7)
    with pytest.raises(ValueError):
        GridSpec(shells_per_decade=0)


def test_point_group_fixing_P_on_the_sweep_grid():
    # scale-1 grid of the acceptance sweep: with P on the x axis the y -> -y
    # and z -> -z mirrors and their product survive; off axis only the identity
    grid = build_grid(ModelParams(sigma=0.5, kappa=1.0), GridSpec(4, 3, 3))
    perms = point_group_permutations(grid, (1.0 / 6.0, 0.0, 0.0))
    assert len(perms) == 4
    assert np.array_equal(perms[0], np.arange(grid.n_modes))
    mirrors = set()
    for perm in perms:
        assert sorted(perm) == list(range(grid.n_modes))
        assert np.allclose(grid.w[perm], grid.w, rtol=1e-14, atol=0.0)
        # each one is diag(1, sy, sz): it fixes k_x, flips k_y, k_z or not
        signs = [(sy, sz) for sy in (1, -1) for sz in (1, -1)
                 if np.allclose(grid.k[perm], grid.k * [1, sy, sz], atol=1e-15)]
        assert len(signs) == 1
        mirrors.add(signs[0])
    assert mirrors == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    off_axis = point_group_permutations(grid, (0.1, 0.07, 0.05))
    assert len(off_axis) == 1
    assert np.array_equal(off_axis[0], np.arange(grid.n_modes))
