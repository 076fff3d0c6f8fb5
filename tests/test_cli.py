from groupreg.cli import main

CONFIG = """scenario=indicator
n_subjects=3
sim_seed=3
seed=5
total=4
burn_in=2
thin=1
margin=40
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
