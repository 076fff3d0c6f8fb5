import json

import numpy as np
import pytest

from groupreg import cli
from groupreg.cli import main
from groupreg.grids import ActivationMap, Lattice, write_map_csv

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
                                  "scenario=cosine\ntotal=4\nburn_in=9\n"])
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
    assert manifest["config"]["model"] == "conventional"
    assert manifest["artifacts"] == ["diagnostics.json", "samples.bin", "samples.csv"]
    assert (runs[0] / "samples.bin").read_bytes() == (runs[1] / "samples.bin").read_bytes()


def test_failing_audit_exits_4(monkeypatch, capsys):
    failing = [{"name": "test.check", "value": 1.0, "tol": 0.5, "passed": False}]
    monkeypatch.setattr(cli, "run_all_audits", lambda seed: (failing, False))
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


@pytest.mark.parametrize("row", ["1.0,x,3.0,4.0,5.0", "1.0,2.0,3.0,4.0"],
                         ids=["non-numeric", "ragged"])
def test_malformed_map_file_exits_2(tmp_path, capsys, row):
    lattice = Lattice((5, 5), 1.0, 0.0)
    path, = _write_maps(tmp_path, [ActivationMap(lattice, np.arange(25.0))])
    lines = path.read_text().splitlines()
    lines[4] = row
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
