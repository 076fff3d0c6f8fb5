import json

import numpy as np
import pytest

from groupreg import baseline, sampler
from groupreg.cli import main
from groupreg.config import RunConfig
from groupreg.errors import DegenerateInput, NonPositiveScale
from groupreg.grids import ActivationMap, Lattice
from groupreg.sampler import ChainAborted
from groupreg.synth import ScenarioSpec, gen_indicator_curves
from groupreg.transforms import AffineTransform


def test_conventional_chain_reports_rejection_counts(monkeypatch):
    """diagnostics.json of a baseline fit counts rejections per subject, as the
    symmetric fit's does."""
    def out_of_library(rows, proposals):
        return np.zeros(rows.size, dtype=bool), np.zeros(3), np.empty(0), ()

    def step_out_of_library(arrays, target, adapt, rng):
        return sampler.lie_mh_step(arrays, out_of_library, adapt, rng)

    monkeypatch.setattr(baseline, "lie_mh_step", step_out_of_library)
    maps, _ = gen_indicator_curves(ScenarioSpec("indicator", n_subjects=3, seed=3))
    cfg = RunConfig(model="conventional", total=4, burn_in=2, thin=1, seed=1)
    store, diag = baseline.ConventionalChain(maps, cfg).run()
    assert diag["rejected_out_of_library"] == [4, 4, 4]
    assert diag["rejected_no_real_log"] == [0, 0, 0]
    assert diag["iterations"] == 4
    assert np.all(store.H_fwd == store.H_fwd[0])


def _fail_in_sweep(monkeypatch, sweep):
    """Make the baseline's T step, one call per sweep, raise NonPositiveScale
    from sweep `sweep` on."""
    steps = []

    def failing_step(*args):
        steps.append(args)
        if len(steps) > sweep:
            raise NonPositiveScale("test: forced failure in a baseline sweep")
        return sampler.lie_mh_step(*args)

    monkeypatch.setattr(baseline, "lie_mh_step", failing_step)


def test_conventional_sweep_failure_aborts_the_chain(monkeypatch):
    """A failed baseline sweep raises ChainAborted with its cause and a snapshot."""
    _fail_in_sweep(monkeypatch, sweep=2)
    maps, _ = gen_indicator_curves(ScenarioSpec("indicator", n_subjects=3, seed=3))
    cfg = RunConfig(model="conventional", total=4, burn_in=2, thin=1, seed=1)
    with pytest.raises(ChainAborted, match="sweep 2 failed") as err:
        baseline.ConventionalChain(maps, cfg).run()
    assert isinstance(err.value.__cause__, NonPositiveScale)
    assert err.value.snapshot["iteration"] == 2
    assert len(err.value.snapshot["transforms"]) == 3


def test_fit_baseline_abort_exits_3_and_writes_only_the_snapshot(monkeypatch, tmp_path,
                                                                   capsys):
    _fail_in_sweep(monkeypatch, sweep=1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario=indicator\nsim_seed=3\nseed=1\ntotal=4\nburn_in=2\nthin=1\n")
    out = tmp_path / "fit"
    assert main(["fit-baseline", "--config", str(cfg), "--out", str(out)]) == 3
    assert "sweep 1 failed" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["snapshot.json"]
    assert not list(tmp_path.glob(".groupreg-staging-*"))
    snapshot = json.loads((out / "snapshot.json").read_text())
    assert snapshot["iteration"] == 1 and len(snapshot["transforms"]) == 3
    assert (snapshot["failed_sweep"], snapshot["stage"]) == (1, "sweep")


@pytest.mark.parametrize("d", [1, 2])
def test_gauss_kernel_matches_the_difference_tensor(d):
    """Summed axis by axis, the squared distances keep every bit of the tensor sum."""
    rng = np.random.default_rng(d)
    a, b = rng.normal(scale=3.0, size=(50, d)), rng.normal(scale=3.0, size=(20, d))
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    expected = np.exp(-d2 / baseline.KERNEL_WIDTH ** 2)
    assert np.array_equal(baseline.gauss_kernel(a, b).view(np.uint64), expected.view(np.uint64))


def test_inverse_warp_needs_maps_on_one_lattice():
    """A mean map over two lattices has no meaning; the warp refuses it."""
    maps = [ActivationMap(Lattice((n,), 0.1, 0.0), np.arange(n, dtype=float))
            for n in (41, 45)]
    with pytest.raises(DegenerateInput):
        baseline.inverse_warp(maps, [AffineTransform.identity(1)] * 2)
