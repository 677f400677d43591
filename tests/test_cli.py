"""End-to-end tests of the nelson-lab command line.

Each test drives main() in-process against a temporary directory and
inspects what lands on disk: the JSON records, CSV tables, SVG plots,
and the manifest index.  Reruns must be byte-identical up to the single
volatile file (timings.json), config errors must name the offending key,
and the sweep ledger must carry the documented column layout.
"""

import argparse
import configparser
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import nelsonlab
from nelsonlab.cli import _INI_SCHEMA, RunConfig, build_parser, main

LEDGER_HEADER = (
    "n,sigma,n_modes,dim,energy,energy_w,gap,gap_w,"
    "grad_e_x,grad_e_y,grad_e_z,grad_norm,alpha_min,h_norm,"
    "energy_drop,c_energy,grad_drift,proj_overlap,phi_hat_diff,"
    "psi_cauchy,phi_cauchy,transfer_defect,"
    "contour_sup_x,contour_sup_y,contour_sup_z,contour_gap,"
    "rgamma_norm,f1_bound_c,deficit,radial_hessian,d3_radial,"
    "n0,n1,n2,energy_mismatch,dressing_defect,grad_defect_norm,"
    "grid_hash,basis_hash,wall_time"
)
DOCS_FORMATS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"
F1_HEADER = "mode,kx,ky,kz,radius,f1_extract,f1_pullthrough,envelope_ratio"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("NELSON_LAB_OUT", raising=False)


@pytest.fixture
def small_ini(tmp_path):
    """A deliberately small configuration so every command runs in ~0.1 s."""
    path = tmp_path / "small.ini"
    path.write_text(textwrap.dedent("""\
        [model]
        coupling = 0.1
        sigma = 0.0625
        p = 0.1 0.05 0.02
        [grid]
        shells_per_decade = 3
        n_polar = 2
        n_azimuthal = 2
        [sweep]
        max_probes = 4
        [run]
        seed = 3
    """))
    return path


def snapshot(out: Path) -> dict:
    """name -> bytes for every file under out, minus the volatile one."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "timings.json"}


def check_manifest(out: Path):
    """The manifest must index exactly the files on disk, hashes correct."""
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {e["name"]: e for e in manifest["outputs"]}
    on_disk = {p.relative_to(out).as_posix()
               for p in out.rglob("*") if p.is_file()}
    assert set(listed) == on_disk
    for name, entry in listed.items():
        if name in ("manifest.json", "timings.json"):
            assert entry["sha256"] is None
        else:
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert entry["sha256"] == digest
    return manifest


# ---------------------------------------------------------------------------
# ground-state command


def test_ground_state_free_field(tmp_path, small_ini):
    out = tmp_path / "run"
    rc = main(["ground-state", "--config", str(small_ini),
               "--lambda", "0", "--out", str(out)])
    assert rc == 0
    record = json.loads((out / "ground_state.json").read_text())
    p2 = 0.5 * (0.1 ** 2 + 0.05 ** 2 + 0.02 ** 2)
    assert abs(record["energy"] - p2) <= 1e-12
    assert abs(record["energy_w"] - p2) <= 1e-12
    assert record["free_energy_p2_over_2"] == pytest.approx(p2, abs=1e-15)
    assert record["h_norm"] == 0.0

    psi_lines = (out / "psi.csv").read_text().splitlines()
    assert psi_lines[0] == "index,re,im"
    first = psi_lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0

    manifest = check_manifest(out)
    assert manifest["command"] == "ground-state"
    assert manifest["config"]["coupling"] == 0.0
    assert {"ground_state.json", "psi.csv", "phi.csv"} <= {
        e["name"] for e in manifest["outputs"]}


def test_solver_failure_exits_without_a_traceback(tmp_path, small_ini, capsys,
                                                  monkeypatch):
    # past DENSE_CUTOFF a LOBPCG that runs out of steps is an
    # ArithmeticError naming the method, which the command reports as its
    # failure
    from nelsonlab import spectral

    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 2)
    monkeypatch.setattr(spectral, "LOBPCG_MAXITER", 1)
    rc = main(["ground-state", "--config", str(small_ini),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("ground-state failed: ")
    assert err.rstrip().endswith("in 1 steps; method=lobpcg")
    assert "Traceback" not in err


def test_unreadable_previous_manifest_is_reported(tmp_path, small_ini):
    out = tmp_path / "run"
    assert main(["derivatives", "--config", str(small_ini),
                 "--out", str(out)]) == 0
    (out / "manifest.json").write_text('{"outputs": [')
    assert main(["ground-state", "--config", str(small_ini),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "derivatives.json" not in {e["name"] for e in manifest["outputs"]}
    assert any("unreadable" in w for w in manifest["warnings"])


def test_ground_state_rerun_is_byte_identical(tmp_path, small_ini):
    out = tmp_path / "run"
    args = ["ground-state", "--config", str(small_ini), "--out", str(out)]
    assert main(args) == 0
    first = snapshot(out)
    assert main(args) == 0
    second = snapshot(out)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} changed across reruns"


def test_manifest_records_environment(tmp_path, small_ini, monkeypatch):
    import numpy
    import scipy
    manifests = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert main(["ground-state", "--config", str(small_ini),
                     "--out", "out"]) == 0
        manifests.append((tmp_path / run / "out" / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    env = json.loads(manifests[0])["environment"]
    assert env["numpy"] == numpy.__version__
    assert env["scipy"] == scipy.__version__
    assert set(env["blas"]) == {"numpy", "scipy"}
    assert all(set(lib) == {"name", "version"} for lib in env["blas"].values())
    assert env["threads"] == {var: os.environ.get(var) for var in
                              ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}


# ---------------------------------------------------------------------------
# configuration handling


def test_unknown_config_key_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nvolume = 3\n")
    rc = main(["ground-state", "--config", str(bad),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "volume" in err and "[model]" in err


def test_unknown_config_section_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[models]\ncoupling = 0.1\n")
    assert main(["ground-state", "--config", str(bad)]) == 2
    assert "[models]" in capsys.readouterr().err


def test_invalid_value_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\np = 0.9 0.9 0.9\n")
    assert main(["ground-state", "--config", str(bad)]) == 2
    assert "'p'" in capsys.readouterr().err


def test_invalid_flag_value_is_named(tmp_path, capsys):
    rc = main(["ground-state", "--sigma", "0", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'sigma'" in capsys.readouterr().err


@pytest.mark.parametrize("args, ini, key", [
    (["--lambda", "nan"], "", "coupling"),
    (["--lambda", "inf"], "", "coupling"),
    (["--P=nan,0,0"], "", "p"),
    ([], "[solver]\ntol = inf\n", "tol"),
    ([], "[sweep]\nlambdas = 0.1 -inf\n", "lambdas"),
], ids=["lambda_nan", "lambda_inf", "P_nan", "ini_tol_inf", "ini_lambdas_inf"])
def test_non_finite_values_are_rejected(tmp_path, capsys, args, ini, key):
    # nan compares false with every bound and inf passes one-sided ones;
    # both are refused before anything runs, never reaching ARPACK or a
    # residual budget
    config = tmp_path / "bad.ini"
    config.write_text(ini)
    out = tmp_path / "o"
    rc = main(["ground-state", "--config", str(config), *args, "--out", str(out)])
    assert rc == 2
    assert f"invalid config value for '{key}': must be finite" in \
        capsys.readouterr().err
    assert not out.exists()


def test_percent_in_an_ini_value_is_read_verbatim(tmp_path):
    out = tmp_path / "pct_100%_out"
    config = tmp_path / "pct.ini"
    config.write_text(f"[model]\ncoupling = 0\n[run]\nout = {out}\n")
    assert main(["ground-state", "--config", str(config)]) == 0
    assert (out / "ground_state.json").is_file()


@pytest.mark.parametrize("key, value", [("max_probes", "0"),
                                        ("max_probes", "-3")])
def test_sweep_counts_below_one_are_rejected(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[sweep]\n{key} = {value}\n")
    out = tmp_path / "o"
    rc = main(["sweep", "--config", str(bad), "--scales", "1",
               "--out", str(out)])
    assert rc == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()  # rejected before anything ran


@pytest.mark.parametrize("lambdas", ["0.1 0.1000001", "0.05 0.1 0.05"])
def test_couplings_sharing_an_output_tag_are_refused(tmp_path, capsys, lambdas):
    # each coupling's ledger, checkpoints and plots are named by its tag;
    # two couplings with one tag would overwrite each other's files
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[sweep]\nlambdas = {lambdas}\n")
    out = tmp_path / "o"
    rc = main(["sweep", "--config", str(bad), "--scales", "1",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'lambdas'" in err and "share the output tag lam0p" in err
    assert not out.exists()


def test_removed_contour_samples_key_is_refused(tmp_path, capsys):
    # each contour norm is one solve now; an old config that still sets the
    # sample count is refused as an unknown key, not silently ignored
    bad = tmp_path / "old.ini"
    bad.write_text("[sweep]\ncontour_samples = 6\n")
    out = tmp_path / "o"
    rc = main(["sweep", "--config", str(bad), "--scales", "1",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown config key 'contour_samples' in [sweep]" in err
    assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    rc = main(["ground-state", "--config", str(tmp_path / "nope.ini")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_config_path_that_is_a_directory_is_an_error(tmp_path, capsys):
    # an unreadable config must not fall back to the defaults
    out = tmp_path / "o"
    rc = main(["ground-state", "--config", str(tmp_path), "--out", str(out)])
    assert rc == 2
    assert str(tmp_path) in capsys.readouterr().err
    assert not out.exists()


def test_flag_beats_config_file(tmp_path, small_ini):
    # the file says coupling = 0.1; the flag says 0 and must win
    out = tmp_path / "run"
    rc = main(["ground-state", "--config", str(small_ini),
               "--lambda", "0", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["coupling"] == 0.0
    record = json.loads((out / "ground_state.json").read_text())
    assert abs(record["energy"] - record["free_energy_p2_over_2"]) <= 1e-12


def test_env_var_sets_out_dir_but_flag_wins(tmp_path, small_ini, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("NELSON_LAB_OUT", str(env_dir))
    assert main(["ground-state", "--config", str(small_ini)]) == 0
    assert (env_dir / "ground_state.json").exists()

    flag_dir = tmp_path / "from_flag"
    assert main(["ground-state", "--config", str(small_ini),
                 "--out", str(flag_dir)]) == 0
    assert (flag_dir / "ground_state.json").exists()


def test_every_flag_sets_a_run_config_field():
    # load_config applies every RunConfig field that a flag set; --config
    # names the file and --corrupt-weight is a verify switch, no setting
    fields = set(RunConfig.__dataclass_fields__)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for sub in subparsers.choices.values()
             for action in sub._actions if action.option_strings}
    assert dests - {"help", "config", "corrupt_weight"} <= fields


def test_formats_doc_lists_the_ini_schema():
    ini = DOCS_FORMATS.read_text().split("```ini\n")[1].split("```")[0]
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(ini)
    documented = {section: tuple(parser[section]) for section in parser.sections()}
    assert documented == _INI_SCHEMA


# ---------------------------------------------------------------------------
# BLAS thread cap


def test_cli_import_leaves_numpy_unloaded():
    # the thread variables only take effect if numpy is not loaded yet
    src = str(Path(nelsonlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, nelsonlab.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_config_file_jobs_caps_blas_threads(tmp_path, small_ini, monkeypatch):
    ini = tmp_path / "jobs.ini"
    ini.write_text(small_ini.read_text().replace("[run]\n", "[run]\njobs = 1\n"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert main(["ground-state", "--config", str(ini),
                 "--out", str(tmp_path / "run")]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert os.environ["OMP_NUM_THREADS"] == "1"


# ---------------------------------------------------------------------------
# derivatives and wavefunctions commands


def test_derivatives_outputs(tmp_path, small_ini):
    out = tmp_path / "run"
    rc = main(["derivatives", "--config", str(small_ini), "--out", str(out)])
    assert rc == 0
    record = json.loads((out / "derivatives.json").read_text())
    hess = record["hessian"]
    assert len(hess) == 3 and all(len(row) == 3 for row in hess)
    for i in range(3):
        for j in range(3):
            assert hess[i][j] == pytest.approx(hess[j][i], abs=1e-7)
    assert 0.0 < record["radial_hessian"] <= 1.0 + 1e-8
    # the radial direction is P-hat, as in the sweep ledger, not grad E
    p = [0.1, 0.05, 0.02]
    n = [x / math.sqrt(sum(y * y for y in p)) for x in p]
    along = sum(n[i] * hess[i][j] * n[j] for i in range(3) for j in range(3))
    assert record["radial_hessian"] == pytest.approx(along, rel=0, abs=1e-12)
    assert len(record["phi_derivative_norms"]) == 3
    check_manifest(out)


def test_wavefunctions_outputs(tmp_path, small_ini):
    out = tmp_path / "run"
    rc = main(["wavefunctions", "--config", str(small_ini),
               "--photon-cap", "3", "--q-max", "2", "--out", str(out)])
    assert rc == 0
    f1_lines = (out / "f1.csv").read_text().splitlines()
    assert f1_lines[0] == F1_HEADER
    summary = json.loads((out / "wavefunctions.json").read_text())
    assert len(f1_lines) - 1 == summary["n_modes"] == summary["tables"]["1"]
    # both routes to f^1 agree up to photon-cap truncation
    assert summary["max_route_gap_f1"] < 1e-2
    assert summary["bound_constant_f1"] > 0.0

    f2_lines = (out / "f2.csv").read_text().splitlines()
    assert f2_lines[0] == "modes,value,pullthrough"
    assert len(f2_lines) - 1 == summary["tables"]["2"]
    probed = [l for l in f2_lines[1:] if not l.endswith(",")]
    assert len(probed) == 4  # max_probes from the config file
    check_manifest(out)

    # the route gap is pure photon-cap truncation: raising the cap by one
    # order shrinks it by well over the coupling scale
    coarse = tmp_path / "coarse"
    assert main(["wavefunctions", "--config", str(small_ini),
                 "--photon-cap", "2", "--q-max", "1",
                 "--out", str(coarse)]) == 0
    gap2 = json.loads((coarse / "wavefunctions.json").read_text())
    assert summary["max_route_gap_f1"] < gap2["max_route_gap_f1"] / 5.0


def test_wavefunction_tables_match_a_reference_formatting(tmp_path, small_ini,
                                                          monkeypatch):
    # the f-tables are written in one pass over each extracted table; the
    # reference sorts each table, probes its first max_probes tuples and
    # formats every row with a lookup, as a plain loop would
    import nelsonlab.wavefunctions as wf
    seen = {}
    extract, pull = wf.extract_fq, wf.froehlich_values

    def recording_extract(bg, q):
        seen[q] = extract(bg, q)
        return seen[q]

    def recording_pull(bg, tuples, tol):
        seen["pull"] = dict(zip(tuples, pull(bg, tuples, tol)))
        return list(seen["pull"].values())

    monkeypatch.setattr(wf, "extract_fq", recording_extract)
    monkeypatch.setattr(wf, "froehlich_values", recording_pull)
    out = tmp_path / "run"
    assert main(["wavefunctions", "--config", str(small_ini), "--photon-cap", "3",
                 "--q-max", "3", "--out", str(out)]) == 0
    summary = json.loads((out / "wavefunctions.json").read_text())
    for q in (2, 3):
        table, probed = seen[q], set(sorted(seen[q])[:4])  # max_probes 4
        assert len(seen["pull"]) > len(probed) and probed <= seen["pull"].keys()
        rows = ["modes,value,pullthrough"]
        worst = 0.0
        for modes in sorted(table):
            cell = ""
            if modes in probed:
                cell = repr(seen["pull"][modes])
                worst = max(worst, abs(seen["pull"][modes] - table[modes]))
            rows.append(";".join(str(m) for m in modes) + f",{table[modes]!r},{cell}")
        assert (out / f"f{q}.csv").read_bytes() == ("\n".join(rows) + "\n").encode()
        assert summary[f"max_route_gap_f{q}_probed"] == worst


def test_wavefunctions_on_empty_grid(tmp_path, small_ini):
    # sigma = kappa is a valid configuration with no photon modes
    out = tmp_path / "run"
    rc = main(["wavefunctions", "--config", str(small_ini),
               "--sigma", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "f1.csv").read_text().splitlines() == [F1_HEADER]
    summary = json.loads((out / "wavefunctions.json").read_text())
    assert summary["n_modes"] == 0 and summary["bound_constant_f1"] == 0.0


def test_wavefunctions_clamps_q_max(tmp_path, small_ini):
    out = tmp_path / "run"
    rc = main(["wavefunctions", "--config", str(small_ini),
               "--q-max", "5", "--photon-cap", "2", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("clamped" in w for w in manifest["warnings"])
    assert not (out / "f3.csv").exists()


def test_wavefunctions_never_dresses(tmp_path, small_ini, monkeypatch):
    """The f-tables read only the bare ground state: the command must make
    one assembly (the bare H) and never run the dressing pipeline."""
    import nelsonlab.dressing
    import nelsonlab.fiberop
    args = ["wavefunctions", "--config", str(small_ini),
            "--photon-cap", "3", "--q-max", "3"]
    ref = tmp_path / "ref"
    assert main(args + ["--out", str(ref)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("wavefunctions ran the dressing pipeline")

    monkeypatch.setattr(nelsonlab.dressing, "dressed_ground_state", refuse)
    assembled = []
    original = nelsonlab.fiberop.assemble

    def counting(*args, **kwargs):
        assembled.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("nelsonlab.") and \
                getattr(mod, "assemble", None) is original:
            monkeypatch.setattr(mod, "assemble", counting)
    out = tmp_path / "run"
    assert main(args + ["--out", str(out)]) == 0
    assert len(assembled) == 1
    for name in ("f1.csv", "f2.csv", "f3.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()


# ---------------------------------------------------------------------------
# sweep and report commands


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep")
    ini = base / "small.ini"
    ini.write_text(textwrap.dedent("""\
        [model]
        coupling = 0.1
        p = 0.1 0.05 0.02
        [grid]
        shells_per_decade = 3
        n_polar = 2
        n_azimuthal = 2
        [sweep]
        max_probes = 4
    """))
    out = base / "out"
    rc = main(["sweep", "--config", str(ini), "--scales", "4",
               "--epsilon", "0.5", "--out", str(out)])
    assert rc == 0
    return ini, out


def test_sweep_ledger_layout(sweep_dir):
    _, out = sweep_dir
    lines = (out / "ledger_lam0p1.csv").read_text().splitlines()
    assert lines[0] == LEDGER_HEADER
    assert len(lines) == 1 + 5  # scales = 4 refinements -> 5 ledger rows
    idx = lines[0].split(",").index("sigma")
    sigmas = [float(l.split(",")[idx]) for l in lines[1:]]
    assert sigmas == [1.0, 0.5, 0.25, 0.125, 0.0625]
    n_col = [int(l.split(",")[0]) for l in lines[1:]]
    assert n_col == [0, 1, 2, 3, 4]


def test_timings_record_the_peak_rss(sweep_dir):
    import resource
    _, out = sweep_dir
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings) == {"command", "peak_rss_mb", "seconds"}
    # a peak of this process, in MiB: no later reading is below it
    now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert 1.0 < timings["peak_rss_mb"] <= now


def test_sweep_fits_and_plots(sweep_dir):
    _, out = sweep_dir
    fits = json.loads((out / "sweep_fits.json").read_text())
    assert set(fits) == {"lam0p1"}
    entry = fits["lam0p1"]
    assert entry["coupling"] == 0.1 and entry["rows"] == 5
    assert entry["truncated"] is False
    assert math.isfinite(entry["delta_hat"][0])
    assert math.isfinite(entry["psi_cauchy"][0])
    for name in ("sweep_lam0p1_cauchy.svg", "sweep_lam0p1_chains.svg",
                 "sweep_lam0p1_gaps.svg"):
        body = (out / name).read_text()
        assert body.startswith("<svg")
        assert "slope" in body
    manifest = check_manifest(out)
    assert not any("dim_cap" in w for w in manifest["warnings"])


def test_sweep_truncated_at_dim_cap_says_so(tmp_path, small_ini):
    ini = tmp_path / "capped.ini"
    ini.write_text(small_ini.read_text() + "[basis]\ndim_cap = 50\n")
    out = tmp_path / "run"
    # scale 3 (12 modes, Q = 2) needs 91 states: 3 of 4 rows are reachable
    rc = main(["sweep", "--config", str(ini), "--sigma", "1",
               "--scales", "3", "--epsilon", "0.5", "--out", str(out)])
    assert rc == 0
    entry = json.loads((out / "sweep_fits.json").read_text())["lam0p1"]
    assert entry["rows"] == 3 and entry["truncated"] is True
    manifest = check_manifest(out)
    assert any("lam0p1" in w and "dim_cap 50" in w and "3 of 4" in w
               for w in manifest["warnings"])


def test_sweep_prints_each_scale_as_it_finishes(tmp_path, small_ini, capsys,
                                                monkeypatch):
    from nelsonlab import multiscale
    printed = []
    compute = multiscale._compute_scale

    def recording(config, n, *args):
        printed.append((n, capsys.readouterr().out))
        return compute(config, n, *args)

    monkeypatch.setattr(multiscale, "_compute_scale", recording)
    assert main(["sweep", "--config", str(small_ini), "--scales", "2",
                 "--epsilon", "0.5", "--out", str(tmp_path / "run")]) == 0
    printed.append((3, capsys.readouterr().out))
    assert [n for n, _ in printed] == [1, 2, 3]
    for n, out in printed:
        # the scale before n was reported before scale n started
        assert out.startswith(f"[lam0p1] n={n - 1} sigma=")


def test_sweep_rerun_resumes_byte_identical(sweep_dir):
    ini, out = sweep_dir
    first = snapshot(out)
    assert any(name.startswith("checkpoints/") for name in first)
    rc = main(["sweep", "--config", str(ini), "--scales", "4",
               "--epsilon", "0.5", "--out", str(out)])
    assert rc == 0
    second = snapshot(out)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} changed across reruns"


def test_resume_leaves_stale_checkpoint_files_out_of_the_manifest(tmp_path,
                                                                   small_ini):
    # vectors in an older checkpoint format beside the current files, and
    # listed by an older manifest: a resume indexes only the current
    # format, names each file left out in one warning and deletes nothing
    out = tmp_path / "run"
    argv = ["sweep", "--config", str(small_ini), "--scales", "1",
            "--epsilon", "0.5", "--out", str(out)]
    assert main(argv) == 0
    ckpt = out / "checkpoints" / "lam0p1"
    stale = ["checkpoints/lam0p1/scale_01_phi.csv",
             "checkpoints/lam0p1/scale_01_psi.csv"]
    for name in stale:
        (out / name).write_text("index,re,im\n0,1.0,0.0\n")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"] += [{"name": name, "sha256": "0" * 64, "bytes": 21}
                            for name in stale]
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {e["name"] for e in manifest["outputs"]}
    assert not listed & set(stale)
    assert {f"checkpoints/lam0p1/{p.name}" for p in ckpt.iterdir()} - listed \
        == set(stale)
    assert all((out / name).exists() for name in stale)
    warned = [w for w in manifest["warnings"] if "not indexed" in w]
    assert len(warned) == 1 and all(name in warned[0] for name in stale)
    # the current files keep their entries and hashes
    for name in stale:
        (out / name).unlink()
    check_manifest(out)


def _saved_bytes(save, *args, **kw):
    buf = io.BytesIO()
    save(buf, *args, **kw)
    return buf.getvalue()


# each defect: (what scale_01_psi.npy becomes, given its vector and bytes;
# what the error must say)
CHECKPOINT_VECTOR_DEFECTS = {
    "empty": (lambda vec, data: b"", "EOF"),
    "truncated header": (lambda vec, data: data[:20], "EOF"),
    "truncated data": (lambda vec, data: data[:-8], "read all data"),
    # the analogue of a nonzero im cell in the text format
    "complex128": (lambda vec, data: _saved_bytes(np.save, vec.astype(complex)),
                   "dtype complex128, expected float64"),
    "wrong length": (lambda vec, data: _saved_bytes(np.save, vec[:-1]),
                     "does not match basis dim"),
    "2-D": (lambda vec, data: _saved_bytes(np.save, vec.reshape(1, -1)),
            "does not match basis dim"),
    "pickled objects": (lambda vec, data: _saved_bytes(
        np.save, vec.astype(object), allow_pickle=True), "allow_pickle=False"),
    "npz archive": (lambda vec, data: _saved_bytes(np.savez, psi=vec),
                    "magic string"),
    "csv text": (lambda vec, data: b"index,re,im\n0,1.0,0.0\n", "magic string"),
    "trailing bytes": (lambda vec, data: data + bytes(8),
                       "trailing bytes after the array"),
}


@pytest.mark.parametrize("defect", sorted(CHECKPOINT_VECTOR_DEFECTS))
def test_resume_refuses_a_checkpoint_vector_that_is_not_its_array(
        tmp_path, small_ini, capsys, defect):
    argv = ["sweep", "--config", str(small_ini), "--scales", "1",
            "--epsilon", "0.5", "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    psi = tmp_path / "run" / "checkpoints" / "lam0p1" / "scale_01_psi.npy"
    data = psi.read_bytes()
    vec = np.load(psi, allow_pickle=False)
    assert vec.dtype == np.float64 and vec.ndim == 1 and len(vec) > 1
    make, why = CHECKPOINT_VECTOR_DEFECTS[defect]
    psi.write_bytes(make(vec, data))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "sweep failed: checkpoint " in err and "scale_01_psi.npy" in err
    assert why in err


@pytest.mark.parametrize("defect", ["truncated", "unknown key"])
def test_resume_names_a_checkpoint_json_that_does_not_parse(tmp_path, small_ini,
                                                            capsys, defect):
    argv = ["sweep", "--config", str(small_ini), "--scales", "1",
            "--epsilon", "0.5", "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    meta = tmp_path / "run" / "checkpoints" / "lam0p1" / "scale_01.json"
    if defect == "truncated":
        text = meta.read_text()
        meta.write_text(text[:text.index('"row"') + 3])
        why = "Unterminated string"
    else:
        payload = json.loads(meta.read_text())
        payload["row"]["stray"] = 1.0
        meta.write_text(json.dumps(payload))
        why = "unexpected keyword argument 'stray'"
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "sweep failed: checkpoint " in err and "scale_01.json" in err
    assert why in err


def test_fresh_sweeps_write_the_same_bytes(tmp_path):
    # two runs in fresh processes and fresh directories, at the default
    # configuration, whose dressed scale 3 (dim 1,540) takes the LOBPCG
    # path from a seeded block; the ledger's wall_time column is the one documented exception
    src = str(Path(nelsonlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        done = subprocess.run([sys.executable, "-m", "nelsonlab.cli", "sweep",
                               "--scales", "3", "--epsilon", "0.5",
                               "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
    vectors = [{p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted((out / "checkpoints").rglob("*.npy"))}
               for out in outs]
    assert len(vectors[0]) == 2 * 3  # psi and phi at scales 1-3
    assert vectors[0] == vectors[1]

    def ledger(out):
        rows = list(csv.reader((out / "ledger_lam0p1.csv").read_text().splitlines()))
        keep = [i for i, name in enumerate(rows[0]) if name != "wall_time"]
        assert len(keep) == len(rows[0]) - 1
        return [[row[i] for i in keep] for row in rows]

    assert ledger(outs[0]) == ledger(outs[1])


def test_fresh_wavefunction_runs_write_the_same_bytes(tmp_path):
    # two runs in fresh processes: the extraction tables and every
    # pull-through value, f^3 included, repeat byte for byte
    src = str(Path(nelsonlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        done = subprocess.run([sys.executable, "-m", "nelsonlab.cli",
                               "wavefunctions", "--sigma", "0.5",
                               "--photon-cap", "3", "--q-max", "3",
                               "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
    names = ["f1.csv", "f2.csv", "f3.csv", "wavefunctions.json"]
    first, second = ([(out / name).read_bytes() for name in names] for out in outs)
    header, row = (outs[0] / "f3.csv").read_text().splitlines()[:2]
    assert header.endswith(",pullthrough") and not row.endswith(",")
    assert first == second


def test_report(sweep_dir):
    ini, out = sweep_dir
    rc = main(["report", "--config", str(ini), "--out", str(out)])
    assert rc == 0
    body = (out / "report.md").read_text()
    assert "lam0p1" in body
    assert "delta-hat" in body
    assert "final sigma = 0.0625" in body
    check_manifest(out)


def test_report_after_short_sweep_skips_missing_fits(tmp_path, small_ini):
    # two fitted scales give no slope errors, and lambda = 0 gives no
    # slopes or energy-drop spread: sweep_fits.json holds null for each
    ini = tmp_path / "two.ini"
    ini.write_text(small_ini.read_text().replace(
        "[sweep]\n", "[sweep]\nlambdas = 0 0.1\n"))
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(ini), "--scales", "2",
                 "--epsilon", "0.5", "--out", str(out)]) == 0
    fits = json.loads((out / "sweep_fits.json").read_text())
    assert fits["lam0"]["psi_cauchy"] == [None, None]
    assert fits["lam0"]["c_energy_spread"] == [None, None]
    assert fits["lam0p1"]["delta_hat"][1] is None
    assert main(["report", "--config", str(ini), "--out", str(out)]) == 0
    body = (out / "report.md").read_text()
    lam0, lam0p1 = body.split("## lam0p1")
    assert "slope" not in lam0 and "energy-drop" not in lam0
    assert "- delta-hat (chain-norm growth): " in lam0p1
    assert "+-" not in body


def test_report_without_sweep_fails(tmp_path, capsys):
    rc = main(["report", "--out", str(tmp_path / "empty")])
    assert rc == 2
    assert "sweep" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify command


def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    out = tmp_path / "v"
    args = ["verify", "--seed", "7", "--out", str(out)]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert "[PASS]" in stdout and "[FAIL]" not in stdout
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) == 8
    first = (out / "verify_report.json").read_bytes()
    assert main(args) == 0
    assert (out / "verify_report.json").read_bytes() == first
    check_manifest(out)


def test_verify_corrupt_weight_fails_dual_route(tmp_path, capsys):
    out = tmp_path / "v"
    rc = main(["verify", "--seed", "7", "--corrupt-weight", "--out", str(out)])
    assert rc == 1
    stdout = capsys.readouterr().out
    assert "[FAIL]" in stdout
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"] is False
    failing = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["dual-route-weyl"]
    assert "route" in failing[0]["detail"]
