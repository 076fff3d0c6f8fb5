import numpy as np
import pytest

from groupreg import baseline, sampler
from groupreg.config import RunConfig
from groupreg.errors import DegenerateInput, OutOfLibraryBounds
from groupreg.grids import ActivationMap, Lattice
from groupreg.synth import ScenarioSpec, gen_indicator_curves
from groupreg.transforms import AffineTransform


def test_fit_conventional_reports_rejection_counts(monkeypatch):
    """diagnostics.json of a baseline fit counts rejections per subject, as the
    symmetric fit's does."""
    def out_of_library(t):
        raise OutOfLibraryBounds("test: proposal left the library")

    def step_out_of_library(t, log_old, log_target, adapt, rng):
        return sampler.lie_mh_step(t, log_old, out_of_library, adapt, rng)

    monkeypatch.setattr(baseline, "lie_mh_step", step_out_of_library)
    maps, _ = gen_indicator_curves(ScenarioSpec("indicator", n_subjects=3, seed=3))
    cfg = RunConfig(model="conventional", total=4, burn_in=2, thin=1, seed=1)
    store, diag = baseline.fit_conventional(maps, cfg)
    assert diag["rejected_out_of_library"] == [4, 4, 4]
    assert diag["rejected_no_real_log"] == [0, 0, 0]
    assert np.all(store.H_fwd == store.H_fwd[0])


def test_inverse_warp_needs_maps_on_one_lattice():
    """A mean map over two lattices has no meaning; the warp refuses it."""
    maps = [ActivationMap(Lattice((n,), 0.1, 0.0), np.arange(n, dtype=float))
            for n in (41, 45)]
    with pytest.raises(DegenerateInput):
        baseline.inverse_warp(maps, [AffineTransform.identity(1)] * 2)
