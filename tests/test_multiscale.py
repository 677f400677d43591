"""Tests for the infrared iteration: per-scale ledger rows, exponent fits,
and checkpointing."""

import gc
import json
import math
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from scipy.linalg import eigh

from nelsonlab import dressing, fiberop, multiscale, spectral
from nelsonlab.fiberop import assemble, transformed_hamiltonian, weyl_coefficients
from nelsonlab.fock import build_basis
from nelsonlab.grid import GridSpec, ModelParams, build_grid, refine_annulus
from nelsonlab.multiscale import SweepConfig, fit_exponent, run_sweep


def small_config(**over):
    base = dict(
        params=ModelParams(coupling=0.1, P=(0.1, 0.05, 0.02), kappa=1.0,
                           alpha_bar=0.0),
        spec=GridSpec(3, 2, 2), epsilon=0.5, n_scales=5, photon_cap=2,
        max_probes=6)
    base.update(over)
    return SweepConfig(**base)


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(small_config())


# ---------------------------------------------------------------------------
# exponent fitting


def test_fit_exponent_recovers_exact_power_law():
    x = 0.5 ** np.arange(1, 7)
    slope, err = fit_exponent(x, 2.7 * x**0.37)
    assert abs(slope - 0.37) < 1e-12
    assert err < 1e-10
    # the delta-hat convention: y ~ c / sigma^delta means delta = -slope
    slope, _ = fit_exponent(x, 4.0 * x**-0.1)
    assert abs(-slope - 0.1) < 1e-12


def test_fit_exponent_constant_series_has_zero_slope():
    x = 0.5 ** np.arange(1, 6)
    slope, err = fit_exponent(x, np.full(5, 3.14))
    assert abs(slope) < 1e-13
    assert err < 1e-13


def test_fit_exponent_degenerate_series():
    slope, err = fit_exponent(np.array([0.5, 0.25]), np.array([1.0, 2.0]))
    assert abs(slope + 1.0) < 1e-12  # exact two-point slope, no error bar
    assert math.isnan(err)
    slope, err = fit_exponent(np.array([0.5]), np.array([1.0]))
    assert math.isnan(slope) and math.isnan(err)


# ---------------------------------------------------------------------------
# closed forms and trivial coupling


def test_scale_zero_closed_forms(sweep):
    row = sweep.rows[0]
    P = np.array(sweep.config.params.P)
    p = float(np.linalg.norm(P))
    kappa = sweep.config.params.kappa
    assert row.n_modes == 0 and row.dim == 1
    assert abs(row.energy - 0.5 * p * p) < 1e-14
    # continuum one-photon gap: min over |k| >= kappa of the free dispersion
    assert abs(row.gap - (kappa * (1.0 - p) + 0.5 * kappa**2)) < 1e-12
    assert abs(row.alpha_min - (1.0 - p)) < 1e-12
    assert row.h_norm == 0.0


def test_lambda_zero_sweep_is_exactly_free():
    params = ModelParams(coupling=0.0, P=(0.1, 0.05, 0.02), kappa=1.0)
    res = run_sweep(small_config(params=params, n_scales=4))
    p2 = 0.5 * float(np.dot(params.P_vec, params.P_vec))
    for row in res.rows:
        assert abs(row.energy - p2) < 1e-12
        assert np.linalg.norm(np.array(row.grad_e) - params.P_vec) < 1e-12
        assert row.h_norm == 0.0
    for row in res.rows[1:]:
        assert abs(row.energy_drop) < 1e-12
        assert math.isnan(row.c_energy)  # 0/0 ledger entry stays unset
        assert row.psi_cauchy < 1e-7
        assert row.phi_cauchy < 1e-7
        assert row.transfer_defect < 1e-7
        assert row.proj_overlap > 1.0 - 1e-10
        assert row.rgamma_norm < 1e-12


# ---------------------------------------------------------------------------
# ledger behaviour of a real sweep


def test_energies_strictly_decrease(sweep):
    energies = [r.energy for r in sweep.rows]
    tol = sweep.config.tol
    assert all(b < a + 2 * tol for a, b in zip(energies, energies[1:]))
    # and genuinely decrease: each annulus contributes binding energy
    assert all(a - b > 1e-4 for a, b in zip(energies, energies[1:]))


def test_dressed_gap_clears_sigma_third(sweep):
    for row in sweep.rows:
        assert row.gap_w >= row.sigma / 3.0


def test_energy_drop_constant_is_stable(sweep):
    lo, hi = sweep.fits["c_energy_spread"]
    assert hi / lo < 3.0


def test_intermediate_overlap_approaches_one(sweep):
    ovl = [r.proj_overlap for r in sweep.rows[1:]]
    assert min(ovl) > 0.99
    assert all(b >= a for a, b in zip(ovl, ovl[1:]))
    for row in sweep.rows[1:]:
        assert abs(row.phi_hat_diff
                   - math.sqrt(1.0 - row.proj_overlap**2)) < 1e-12


def test_frame_transfer_reproduces_next_dressed_state(sweep):
    # W_{n+1} W_int^* is one displacement; applying it to the intermediate
    # ground state must land on the next dressed ground state
    for row in sweep.rows[1:]:
        assert row.transfer_defect < 1e-6


def test_dressed_cauchy_differences_shrink(sweep):
    phi = [r.phi_cauchy for r in sweep.rows[1:]]
    assert all(b < a for a, b in zip(phi, phi[1:]))
    # bare differences stay bounded but need not shrink at alpha_bar = 0
    assert all(0.0 < r.psi_cauchy < 0.5 for r in sweep.rows[1:])


def test_gradient_drift_obeys_scale_bound(sweep):
    lam2 = sweep.config.params.coupling ** 2
    eps = sweep.config.epsilon
    for row in sweep.rows[1:]:
        assert row.grad_drift <= 1.0 * (lam2 * row.sigma / eps
                                        + row.phi_hat_diff)
    assert sweep.fits["drift_constant"] < 1.0


def test_f1_bound_constant_is_stable(sweep):
    lo, hi = sweep.fits["f1_bound_spread"]
    assert 0.0 < lo and hi / lo < 2.0


def test_fit_table_is_complete(sweep):
    for key in ("psi_cauchy", "phi_cauchy", "grad_drift", "n0", "n1",
                "contour_sup", "delta_hat", "c_energy_spread",
                "f1_bound_spread", "drift_constant", "fit_rows"):
        assert key in sweep.fits


def test_parent_modes_keep_their_dressing(sweep):
    # the intermediate dressing at scale n+1 with the old gradient agrees
    # with the old dressing on every parent mode
    params = sweep.config.params
    grid1 = build_grid(params.with_sigma(sweep.config.sigma_at(1)),
                       sweep.config.spec)
    grid2 = refine_annulus(grid1, sweep.config.sigma_at(2))
    grad = np.array(sweep.rows[1].grad_e)
    h1 = weyl_coefficients(params.with_sigma(grid1.sigma), grid1, grad)
    h2 = weyl_coefficients(params.with_sigma(grid2.sigma), grid2, grad)
    assert np.array_equal(h2[:grid1.n_modes], h1)


# ---------------------------------------------------------------------------
# persistence


def test_csv_ledger_layout(tmp_path, sweep):
    path = tmp_path / "ledger.csv"
    sweep.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(sweep.rows) + 1
    header = lines[0].split(",")
    for name in ("n", "sigma", "energy", "gap_w", "grad_e_x", "grad_e_z",
                 "contour_sup_x", "rgamma_norm", "wall_time"):
        assert name in header
    first = dict(zip(header, lines[1].split(",")))
    assert first["n"] == "0"
    assert float(first["energy"]) == sweep.rows[0].energy


def test_checkpoints_resume_and_invalidate(tmp_path, monkeypatch):
    cfg = small_config(n_scales=3)
    seen = []
    first = run_sweep(cfg, checkpoint_dir=tmp_path,
                      progress=lambda r: seen.append(r.n))
    assert seen == [0, 1, 2]
    original = first.rows[1].energy

    # tamper with the stored row; a resumed sweep must trust the disk copy
    meta = tmp_path / "scale_01.json"
    payload = json.loads(meta.read_text())
    payload["row"]["energy"] = original + 1.0
    meta.write_text(json.dumps(payload))
    resumed = run_sweep(cfg, checkpoint_dir=tmp_path)
    assert abs(resumed.rows[1].energy - (original + 1.0)) < 1e-12

    # any config change flips the content hash and forces recomputation
    recomputed = run_sweep(small_config(n_scales=3, tol=1e-11),
                           checkpoint_dir=tmp_path)
    assert abs(recomputed.rows[1].energy - original) < 1e-8

    # so do other numerics: checkpoints written under another
    # NUMERICS_VERSION are recomputed, not resumed
    with monkeypatch.context() as m:
        m.setattr(multiscale, "NUMERICS_VERSION", multiscale.NUMERICS_VERSION - 1)
        run_sweep(cfg, checkpoint_dir=tmp_path)
    payload = json.loads(meta.read_text())
    payload["row"]["energy"] = original + 1.0
    meta.write_text(json.dumps(payload))
    current = run_sweep(cfg, checkpoint_dir=tmp_path)
    assert abs(current.rows[1].energy - original) < 1e-8


def test_full_resume_assembles_no_matrix(tmp_path, monkeypatch):
    cfg = small_config(n_scales=3)
    run_sweep(cfg, checkpoint_dir=tmp_path).to_csv(tmp_path / "first.csv")

    def refuse(op, basis):
        if basis.dim > 1:
            raise AssertionError(f"resume assembled a dim-{basis.dim} matrix")
        return fiberop.assemble(op, basis)

    for mod in (multiscale, dressing):
        monkeypatch.setattr(mod, "assemble", refuse)
    run_sweep(cfg, checkpoint_dir=tmp_path).to_csv(tmp_path / "resumed.csv")
    assert (tmp_path / "resumed.csv").read_bytes() == \
        (tmp_path / "first.csv").read_bytes()


def test_next_scale_starts_without_the_previous_state(monkeypatch):
    # the carry between scales is the five-field RestoredScale, so the
    # previous DressedScaleState (H, Hw, Gamma, R0 Gamma phi) is freed
    states = []
    solve, compute = multiscale.dressed_ground_state, multiscale._compute_scale

    def recording_solve(*args):
        state = solve(*args)
        states.append(weakref.ref(state))
        return state

    def checking_compute(config, n, grid, basis, prev):
        gc.collect()
        assert len(states) == n and all(ref() is None for ref in states)
        assert isinstance(prev, multiscale.RestoredScale)
        return compute(config, n, grid, basis, prev)

    monkeypatch.setattr(multiscale, "dressed_ground_state", recording_solve)
    monkeypatch.setattr(multiscale, "_compute_scale", checking_compute)
    assert len(run_sweep(small_config(n_scales=3)).rows) == 3


def test_each_scale_splits_its_bare_h_once(monkeypatch):
    # the bare solve and the dispersion probes of a scale share one split
    splits = []
    real_init = spectral.SchurSplit.__init__

    def recording_init(self, H):
        splits.append(H.shape[0])
        real_init(self, H)

    monkeypatch.setattr(spectral.SchurSplit, "__init__", recording_init)
    res = run_sweep(small_config(n_scales=3))
    assert splits == [row.dim for row in res.rows] == [1, 15, 45]


def acceptance_config(n_scales):
    return SweepConfig(params=ModelParams(coupling=0.1, P=(1 / 6, 0.0, 0.0)),
                       spec=GridSpec(4, 3, 3), epsilon=0.5, n_scales=n_scales)


@pytest.fixture(scope="module")
def acceptance_sweep():
    """The acceptance sweep's rows 0-4 (dims up to 2,701) and its config."""
    config = acceptance_config(5)
    return config, run_sweep(config).rows


@pytest.mark.parametrize("n, dim", [(3, 1540), (4, 2701)])
def test_dressed_and_intermediate_gaps_match_dense_oracles(acceptance_sweep,
                                                           n, dim):
    # past DENSE_CUTOFF the dressed pair (gap_w) and the intermediate pair
    # (contour_gap, its gap less sigma/3) come from block LOBPCG; a dense
    # eigh of the same operators, rebuilt from the ledger's gradients,
    # gives both gaps
    config, rows = acceptance_sweep
    grid = build_grid(config.params.with_sigma(config.sigma_at(0)), config.spec)
    for m in range(1, n + 1):
        grid = refine_annulus(grid, config.sigma_at(m))
    basis = build_basis(grid.n_modes, config.photon_cap)
    assert basis.dim == dim > spectral.DENSE_CUTOFF
    params = config.params.with_sigma(config.sigma_at(n))
    row = rows[n]
    for grad, gap in ((row.grad_e, row.gap_w),
                      (rows[n - 1].grad_e, row.contour_gap + params.sigma / 3.0)):
        H = assemble(transformed_hamiltonian(params, grid, grad), basis)
        vals = eigh(H.toarray(), eigvals_only=True, subset_by_index=[0, 1])
        assert abs(gap - (vals[1] - vals[0])) < 1e-10


def test_start_blocks_are_built_only_for_lobpcg(monkeypatch):
    # scale 1 (dim 190) is solved densely and builds no start block; at
    # scale 2 (dim 703) the dressed and the intermediate pair take LOBPCG
    # and build one block each, and the bare pair (Feshbach-Schur) none
    built = []
    soft, displace = dressing.soft_photon_block, multiscale.apply_displacement

    def recording_soft(basis, *args):
        built.append(("soft", basis.dim))
        return soft(basis, *args)

    def recording_displace(basis, delta, v):
        if np.ndim(v) == 2:
            built.append(("pair", basis.dim))
        return displace(basis, delta, v)

    monkeypatch.setattr(dressing, "soft_photon_block", recording_soft)
    monkeypatch.setattr(multiscale, "apply_displacement", recording_displace)
    rows = run_sweep(acceptance_config(3)).rows
    assert [row.dim for row in rows] == [1, 190, 703]
    assert built == [("soft", 703), ("pair", 703)]


def test_partial_resume_matches_fresh_sweep(tmp_path):
    cfg = small_config(n_scales=3)
    fresh = run_sweep(cfg, checkpoint_dir=tmp_path)
    (tmp_path / "scale_02.json").unlink()
    resumed = run_sweep(cfg, checkpoint_dir=tmp_path)

    def cells(row):  # repr, so that nan cells compare equal
        d = asdict(row)
        del d["wall_time"]
        return repr(d)
    assert [cells(r) for r in resumed.rows] == [cells(r) for r in fresh.rows]


def test_resumed_vectors_keep_every_bit(tmp_path, monkeypatch):
    cfg = small_config(n_scales=3)
    computed, loaded = {}, {}
    compute, load = multiscale._compute_scale, multiscale._load_checkpoint

    def recording_compute(config, n, *args):
        row, state = compute(config, n, *args)
        computed[n] = state
        return row, state

    def recording_load(directory, config, n, *args):
        found = load(directory, config, n, *args)
        if found is not None:
            loaded[n] = found[1]
        return found

    monkeypatch.setattr(multiscale, "_compute_scale", recording_compute)
    monkeypatch.setattr(multiscale, "_load_checkpoint", recording_load)
    run_sweep(cfg, checkpoint_dir=tmp_path)
    run_sweep(cfg, checkpoint_dir=tmp_path)
    assert sorted(computed) == sorted(loaded) == [1, 2]
    for n, state in computed.items():
        for name in ("psi", "phi"):
            back = getattr(loaded[n], name)
            assert back.dtype == np.float64
            assert back.tobytes() == getattr(state, name).tobytes()


def test_text_checkpoints_of_older_code_are_recomputed(tmp_path, monkeypatch):
    # older code stored each vector as index,re,im CSV text beside the
    # same JSON; with no .npy beside it the scale is recomputed, not refused
    cfg = small_config(n_scales=3)
    fresh = run_sweep(cfg, checkpoint_dir=tmp_path)
    for npy in sorted(tmp_path.glob("*.npy")):
        vec = np.load(npy, allow_pickle=False)
        npy.with_suffix(".csv").write_text("index,re,im\n" + "".join(
            f"{i},{r!r},0.0\n" for i, r in enumerate(vec.tolist())))
        npy.unlink()
    recomputed = []
    compute = multiscale._compute_scale

    def recording(config, n, *args):
        recomputed.append(n)
        return compute(config, n, *args)

    monkeypatch.setattr(multiscale, "_compute_scale", recording)
    resumed = run_sweep(cfg, checkpoint_dir=tmp_path)
    assert recomputed == [1, 2]
    assert sorted(p.name for p in tmp_path.glob("*.npy")) == [
        f"scale_0{n}_{v}.npy" for n in (1, 2) for v in ("phi", "psi")]

    def cells(row):
        d = asdict(row)
        del d["wall_time"]
        return repr(d)
    assert [cells(r) for r in resumed.rows] == [cells(r) for r in fresh.rows]


def test_dimension_cap_stops_the_sweep():
    res = run_sweep(small_config(dim_cap=100))
    # scale 4 would need a 153-dimensional basis; the sweep stops before it
    assert len(res.rows) == 4
    assert res.rows[-1].dim <= 100


def test_config_hash_tracks_content():
    assert small_config().content_hash() == small_config().content_hash()
    changed = small_config(params=ModelParams(coupling=0.2,
                                              P=(0.1, 0.05, 0.02)))
    assert changed.content_hash() != small_config().content_hash()
