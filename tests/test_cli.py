import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groupreg
from groupreg import audit, baseline, cli, sampler
from groupreg.cli import main
from groupreg.config import parse_config
from groupreg.errors import NonPositiveScale
from groupreg.grids import ActivationMap, Lattice, write_map_csv
from groupreg.model import M_MAX
from groupreg.store import SampleStore, save_store

CONFIG = """scenario=indicator
n_subjects=3
sim_seed=3
seed=5
total=4
burn_in=2
thin=1
init_iters=2
a0_alpha=0.2
b0_alpha=0.1
lambda_r_grid=0.5,2
"""


def test_waic_scan_matches_single_fits(tmp_path):
    """Each scan value reuses one initialization, yet writes what `fit` writes."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    assert main(["waic-scan", "--config", str(cfg), "--out", str(tmp_path / "scan")]) == 0
    for lam in ("0.5", "2"):
        out = tmp_path / f"fit_{lam}"
        assert main(["fit", "--config", str(cfg), "--lambda-r", lam, "--out", str(out)]) == 0
        scanned = tmp_path / "scan" / f"lambda_{lam}" / "samples.bin"
        assert scanned.read_bytes() == (out / "samples.bin").read_bytes()


def _no_outputs_left(tmp_path, out):
    assert not out.exists()
    assert not list(tmp_path.glob(".groupreg-staging-*"))


def only_snapshot(tmp_path, out):
    """The snapshot.json that an aborted chain leaves in `out`, its only file."""
    assert sorted(p.name for p in out.iterdir()) == ["snapshot.json"]
    assert not list(tmp_path.glob(".groupreg-staging-*"))
    return json.loads((out / "snapshot.json").read_text())


def test_fit_failing_at_setup_exits_3_and_writes_nothing(tmp_path, capsys):
    """A constant map leaves the scale regression of initialization undefined."""
    lattice = Lattice((41,), 0.1, 0.0)
    flat = ActivationMap(lattice, np.full(lattice.n_sites, 0.5))
    paths = _write_maps(tmp_path, [_bump(lattice), flat])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"maps={paths[0]},{paths[1]}\ntotal=4\nburn_in=2\nthin=1\n")
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 3
    assert "constant map" in capsys.readouterr().err
    _no_outputs_left(tmp_path, out)


@pytest.mark.parametrize("text", ["scenario=cosine\nthis line has no equals sign\n",
                                  "scenario=cosine\ntotal=many\n",
                                  "scenario=cosine\nno_such_key=1\n",
                                  "scenario=cosine\ntotal=4\nburn_in=9\n",
                                  "scenario=cosine\na_T=nan\n",
                                  "scenario=cosine\nseed=-1\n",
                                  "scenario=cosine\nrho_lower=-0.5\n",
                                  f"scenario=cosine\nm={M_MAX + 1}\n"])
def test_malformed_config_exits_2_and_writes_nothing(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 2
    _no_outputs_left(tmp_path, out)


@pytest.mark.parametrize("key", ["margin=40", "rho_step=0.2", "tau=2.0", "landmark_stride=3"])
def test_retired_config_keys_exit_2(tmp_path, capsys, key):
    """The library margin is derived from the data; the rho step and the baseline's
    kernel width and landmark stride are fixed."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario=cosine\n{key}\n")
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown key" in capsys.readouterr().err
    _no_outputs_left(tmp_path, out)


@pytest.mark.parametrize("argv", [["fit", "--model", "conventional"],
                                  ["fit-baseline", "--model", "symmetric"],
                                  ["fit-baseline", "--lambda-r", "7"],
                                  ["summarize", "samples.bin", "--seed", "3"]])
def test_flags_that_change_no_output_are_rejected(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    _no_outputs_left(tmp_path, out)


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    _no_outputs_left(tmp_path, out)


def test_lambda_r_under_the_conventional_model_exits_2(tmp_path, capsys):
    """The conventional model has no inverse-consistency penalty for lambda_r to weigh."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG + "model=conventional\n")
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg), "--lambda-r", "7", "--out", str(out)]) == 2
    assert "lambda_r reaches no output of model=conventional" in capsys.readouterr().err
    _no_outputs_left(tmp_path, out)


def test_fit_failing_while_recording_exits_3_and_writes_only_the_snapshot(
        tmp_path, capsys, monkeypatch):
    """Negative betas leave the first kept draw's scale undefined. The snapshot
    counts the sweeps done: sweep 2 finished, and then its record failed."""
    def negative_betas(state, hp, rng):
        update_beta_sigma(state, hp, rng)
        state.beta = -np.abs(state.beta)

    update_beta_sigma = sampler.update_beta_sigma
    monkeypatch.setattr(sampler, "update_beta_sigma", negative_betas)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 3
    assert "recording sweep 2 failed: mean beta is" in capsys.readouterr().err
    snapshot = only_snapshot(tmp_path, out)
    assert snapshot["iteration"] == 3
    assert (snapshot["failed_sweep"], snapshot["stage"]) == (2, "record")
    assert all(beta < 0 for beta in snapshot["beta"])


def _fail_from_sweep_1(monkeypatch, module, name):
    """Make `module.name`, which a chain calls once per sweep, fail from sweep 1."""
    step = getattr(module, name)
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) > 1:
            raise NonPositiveScale("test: forced failure in a sweep")
        return step(*args)

    monkeypatch.setattr(module, name, failing)


def _fail_alpha_from_sweep_1(monkeypatch):
    _fail_from_sweep_1(monkeypatch, sampler, "update_alpha")


@pytest.mark.parametrize("command", ["fit", "waic-scan"])
def test_symmetric_sweep_failure_exits_3_and_writes_only_the_snapshot(
        tmp_path, capsys, monkeypatch, command):
    """The alpha update of sweep 1 fails: the first chain aborts before any record."""
    _fail_alpha_from_sweep_1(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert "sweep 1 failed: test: forced failure" in capsys.readouterr().err
    snapshot = only_snapshot(tmp_path, out)
    assert snapshot["iteration"] == 1
    assert (snapshot["failed_sweep"], snapshot["stage"]) == (1, "sweep")
    assert len(snapshot["transforms"]) == len(snapshot["reverse_transforms"]) == 3


@pytest.mark.parametrize("command", ["fit", "fit-baseline", "waic-scan"])
def test_out_holds_one_runs_files_after_abort_and_after_success(tmp_path, monkeypatch,
                                                                command):
    """Success, abort, success into one --out: an abort deletes the files the
    earlier manifest lists, a success deletes the earlier snapshot, and a file
    that groupreg did not write stays."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine")

    def run_files():
        manifest = json.loads((out / "manifest.json").read_text())
        return sorted(manifest["artifacts"] + ["manifest.json", "notes.txt"])

    def files():
        return sorted(p.relative_to(out).as_posix()
                      for p in out.rglob("*") if p.is_file())

    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    success = run_files()
    assert files() == success
    if command == "fit-baseline":
        _fail_from_sweep_1(monkeypatch, baseline, "conventional_sigma2_conditional")
    else:
        _fail_alpha_from_sweep_1(monkeypatch)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "snapshot.json"]
    monkeypatch.undo()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert files() == run_files() == success


@pytest.mark.parametrize("command", ["fit", "fit-baseline"])
def test_maps_too_small_to_interpolate_exit_3(tmp_path, capsys, command):
    lattice = Lattice((3, 3), 1.0, 0.0)
    paths = _write_maps(tmp_path, [ActivationMap(lattice, np.arange(9.0) + k) for k in (0, 1)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"maps={paths[0]},{paths[1]}\ntotal=4\nburn_in=2\nthin=1\n")
    out = tmp_path / "fit"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert "at least 4 sites on every lattice axis" in capsys.readouterr().err
    _no_outputs_left(tmp_path, out)


def test_waic_scan_manifest_lists_every_staged_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.replace("lambda_r_grid=0.5,2", "lambda_r_grid=2"))
    out = tmp_path / "scan"
    assert main(["waic-scan", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["lambda_2/diagnostics.json", "lambda_2/samples.bin",
                                     "waic_table.csv"]
    assert manifest["command"] == "waic-scan"


def test_fit_baseline_writes_its_artifacts_reproducibly(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    runs = [tmp_path / "base0", tmp_path / "base1"]
    for out in runs:
        assert main(["fit-baseline", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in runs[0].iterdir()) == [
        "diagnostics.json", "manifest.json", "samples.bin", "samples.csv"]
    manifest = json.loads((runs[0] / "manifest.json").read_text())
    assert manifest["command"] == "fit-baseline"
    assert manifest["config"]["model"] == "conventional"
    assert manifest["artifacts"] == ["diagnostics.json", "samples.bin", "samples.csv"]
    assert (runs[0] / "samples.bin").read_bytes() == (runs[1] / "samples.bin").read_bytes()


def test_simulate_fit_summarize_and_inverse_warp_write_their_manifests(tmp_path):
    """Each command exits 0 and writes exactly the files its manifest lists."""
    (tmp_path / "sim.cfg").write_text("scenario=cosine\nn_subjects=2\nseed=1\n")
    maps = ",".join(str(tmp_path / "sim" / f"map{i:02d}.csv") for i in range(2))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"maps={maps}\nseed=1\ntotal=4\nburn_in=2\nthin=1\ninit_iters=2\n")
    store = str(tmp_path / "fit" / "samples.bin")
    runs = [("sim", ["simulate", "--config", str(tmp_path / "sim.cfg")]),
            ("fit", ["fit", "--config", str(cfg)]),
            ("summary", ["summarize", store]),
            ("warp", ["inverse-warp", store, "--config", str(cfg)])]
    for name, argv in runs:
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            manifest["artifacts"] + ["manifest.json"])


@pytest.mark.parametrize("argv, key, value", [
    (["fit", "--lambda-r", "3"], "lambda_r", 3.0),
    (["fit", "--seed", "9"], "seed", 9),
    (["fit-baseline"], "model", "conventional"),
    (["waic-scan", "--lambda-r-grid", "1,4"], "lambda_r_grid", [1.0, 4.0]),
    (["summarize", "STORE", "--level", "0.8"], "credible_level", 0.8),
    (["inverse-warp", "STORE", "--seed", "9"], "seed", 9),
    (["simulate", "--seed", "9"], "seed", 9)],
    ids=["fit-lambda-r", "fit-seed", "fit-baseline-model", "waic-scan-lambda-r-grid",
         "summarize-level", "inverse-warp-seed", "simulate-seed"])
def test_each_override_reaches_its_config_key_in_the_manifest(tmp_path, argv, key, value):
    """The manifest's config holds the flag's value (fit-baseline's model is
    its command's), not the config file's."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    assert parse_config(CONFIG).to_dict()[key] != value
    store = tmp_path / "fit" / "samples.bin"
    if "STORE" in argv:
        assert main(["fit", "--config", str(cfg), "--out", str(store.parent)]) == 0
    argv = [str(store) if arg == "STORE" else arg for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"][key] == value


def test_inverse_warp_of_maps_on_another_lattice_exits_2(tmp_path, capsys):
    """A store fitted on 41 sites at spacing 0.1, maps on 60 sites at spacing 0.2."""
    n, eye = 2, np.broadcast_to(np.eye(2), (2, 2, 2, 2))
    meta = {"model": "symmetric", "seed": 0, "config_hash": "", "lambda_r": 1.0, "dim": 1,
            "shape": [41], "spacing": [0.1], "origin": [0.0], "n_subjects": n}
    store = tmp_path / "samples.bin"
    save_store(SampleStore(meta, X=np.zeros((2, 41)), H_fwd=eye, H_rev=eye,
                           beta=np.ones((2, n)), sigma2=np.ones((2, n)), alpha=np.ones(2),
                           rho=np.ones(2)), store)
    paths = _write_maps(tmp_path, [_bump(Lattice((60,), 0.2, -3.0))] * n)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"maps={paths[0]},{paths[1]}\n")
    out = tmp_path / "warp"
    assert main(["inverse-warp", str(store), "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "shape=(41,), spacing=array([0.1])" in err
    assert "shape=(60,), spacing=array([0.2]), origin=array([-3.])" in err
    _no_outputs_left(tmp_path, out)


def test_failing_audit_exits_4(monkeypatch, capsys):
    failing = [{"name": "test.check", "value": 1.0, "tol": 0.5, "passed": False}]
    monkeypatch.setattr(audit, "run_all_audits", lambda seed: (failing, False))
    assert main(["audit"]) == 4
    assert "[FAIL] test.check" in capsys.readouterr().out


def test_rerun_from_manifest_is_bit_exact(tmp_path):
    """The manifest's config, written back as key=value text, refits the same samples."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    first = tmp_path / "first"
    assert main(["fit", "--config", str(cfg), "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    lines = [f"{key}={','.join(map(str, value)) if isinstance(value, list) else value}"
             for key, value in manifest["config"].items()]
    rerun_cfg = tmp_path / "rerun.cfg"
    rerun_cfg.write_text("\n".join(lines) + "\n")
    second = tmp_path / "second"
    assert main(["fit", "--config", str(rerun_cfg), "--out", str(second)]) == 0
    rerun = json.loads((second / "manifest.json").read_text())
    assert rerun["config"] == manifest["config"]
    assert rerun["config_hash"] == manifest["config_hash"]
    assert (second / "samples.bin").read_bytes() == (first / "samples.bin").read_bytes()


def _bump(lattice):
    x = lattice.locations()[:, 0]
    return ActivationMap(lattice, np.exp(-((x - x.mean()) / 0.8) ** 2))


def _write_maps(tmp_path, maps):
    paths = []
    for i, amap in enumerate(maps):
        paths.append(tmp_path / f"map{i}.csv")
        write_map_csv(amap, paths[-1])
    return paths


@pytest.mark.parametrize("command", ["fit", "fit-baseline"])
@pytest.mark.parametrize("other", [Lattice((45,), 0.1, 0.0), Lattice((41,), 0.1, 0.5)],
                         ids=["shape", "origin"])
def test_maps_on_different_lattices_exit_3(tmp_path, capsys, command, other):
    paths = _write_maps(tmp_path, [_bump(Lattice((41,), 0.1, 0.0)), _bump(other)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"maps={paths[0]},{paths[1]}\ntotal=4\nburn_in=2\nthin=1\n"
                   "init_iters=2\n")
    out = tmp_path / "fit"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert "share one lattice" in capsys.readouterr().err
    _no_outputs_left(tmp_path, out)


@pytest.mark.parametrize("index, line", [(4, "1.0,x,3.0,4.0,5.0"), (4, "1.0,2.0,3.0,4.0"),
                                         (4, "1.0,nan,3.0,4.0,5.0"), (4, "1.0,2.0,inf,4.0,5.0"),
                                         (1, "spacing,nan"), (2, "origin,inf")],
                         ids=["non-numeric", "ragged", "nan-value", "inf-value",
                              "nan-spacing", "inf-origin"])
def test_malformed_map_file_exits_2(tmp_path, capsys, index, line):
    lattice = Lattice((5, 5), 1.0, 0.0)
    path, = _write_maps(tmp_path, [ActivationMap(lattice, np.arange(25.0))])
    lines = path.read_text().splitlines()
    lines[index] = line
    path.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"maps={path}\ntotal=4\nburn_in=2\n")
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 2
    assert str(path) in capsys.readouterr().err
    _no_outputs_left(tmp_path, out)


def test_malformed_lambda_r_grid_flag_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "scan"
    assert main(["waic-scan", "--config", str(cfg), "--lambda-r-grid", "a,b",
                 "--out", str(out)]) == 2
    assert "lambda_r_grid needs comma-separated numbers" in capsys.readouterr().err
    _no_outputs_left(tmp_path, out)


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("grid, message", [
    ("1,-1", "lambda_r_grid values must be >= 0, got [1.0, -1.0]"),
    ("2,2.0000001", "share output directories: ['lambda_2', 'lambda_2']"),
    ("0.5,0.5", "share output directories: ['lambda_0.5', 'lambda_0.5']")],
    ids=["negative", "same-directory", "repeated"])
def test_lambda_r_grid_is_checked_before_any_chain_runs(tmp_path, capsys, where, grid, message):
    """A negative value, or two values that would write one lambda_* directory,
    exit 2 before the first chain: no progress line, nothing written."""
    cfg = tmp_path / "run.cfg"
    flag = ["--lambda-r-grid", grid] if where == "flag" else []
    text = CONFIG if flag else CONFIG.replace("lambda_r_grid=0.5,2", f"lambda_r_grid={grid}")
    cfg.write_text(text)
    out = tmp_path / "scan"
    assert main(["waic-scan", "--config", str(cfg), *flag, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "lambda_r=" not in captured.out
    assert message in captured.err
    _no_outputs_left(tmp_path, out)


def test_cli_import_loads_scipys_lapack_extension_and_no_package_around_it():
    """A fresh `import groupreg.cli` loads scipy's LAPACK extension only: not the
    `scipy.linalg` package, whose `__init__` loads scipy's array-API layer and
    with it numpy's lazy submodules, nor `scipy.optimize`, `scipy.special` or
    `scipy.stats`. Importing these would be most of a short fit's start-up
    time."""
    src = str(Path(groupreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    unwanted = ("scipy.linalg", "scipy.optimize", "scipy.special", "scipy.stats",
                "numpy.f2py", "numpy.testing")
    code = ("import sys, groupreg.cli; "
            f"print(' '.join(m for m in {unwanted!r} if m in sys.modules)); "
            "print('scipy.linalg._flapack' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["", "True"]
