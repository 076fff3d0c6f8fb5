import numpy as np
import pytest

from groupreg.errors import ValidationError
from groupreg.synth import (ScenarioSpec, base_glyph, cosine_template,
                            gen_cosine_curves, gen_indicator_curves,
                            gen_rotated_glyphs, generate, indicator_template,
                            rotate_glyph)
from groupreg.transforms import affine_apply, karcher_mean, lie_log


class TestIndicator:
    def test_grid_is_201_points_on_minus5_5(self):
        maps, truth = gen_indicator_curves(ScenarioSpec("indicator", seed=0))
        lat = maps[0].lattice
        assert lat.shape == (201,)
        assert lat.spacing[0] == pytest.approx(0.05)
        lower, upper = lat.bounds()
        assert lower[0] == pytest.approx(-5.0) and upper[0] == pytest.approx(5.0)

    def test_noise_free_maps_are_the_template_at_the_true_transforms(self):
        """Y_i(s) = X(T_i(s)) exactly, with X the indicator of [-1, 1]."""
        maps, truth = gen_indicator_curves(ScenarioSpec("indicator", noise_sd=0.0, seed=3))
        locs = maps[0].lattice.locations()
        for amap, t in zip(maps, truth.transforms):
            assert np.array_equal(amap.values, indicator_template(affine_apply(t, locs)[:, 0]))

    def test_known_shift_moves_support(self):
        """T(s) = scale s - shift moves the support [-1, 1] to [(shift - 1) /
        scale, (shift + 1) / scale]: the sites at 1 lie there, the first and
        the last within one spacing of its ends."""
        maps, truth = gen_indicator_curves(ScenarioSpec("indicator", noise_sd=0.0, seed=3))
        s = maps[0].lattice.locations()[:, 0]
        spacing = maps[0].lattice.spacing[0]
        for amap, t in zip(maps, truth.transforms):
            scale, shift = t.matrix[0, 0], -t.matrix[0, 1]
            lo, hi = (shift - 1.0) / scale, (shift + 1.0) / scale
            on = s[amap.values > 0.5]
            assert lo - 1e-9 <= on.min() < lo + spacing
            assert hi - spacing < on.max() <= hi + 1e-9
            assert np.all(amap.values[(s > on.min()) & (s < on.max())] == 1.0)

    def test_default_noise_sd(self):
        assert ScenarioSpec("indicator").effective_noise_sd == 0.5

    def test_seeded_determinism(self):
        a, _ = gen_indicator_curves(ScenarioSpec("indicator", seed=42))
        b, _ = gen_indicator_curves(ScenarioSpec("indicator", seed=42))
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.values, mb.values)

    def test_true_transforms_standardized(self):
        _, truth = gen_indicator_curves(ScenarioSpec("indicator", seed=9))
        mean = karcher_mean(truth.transforms)
        assert np.linalg.norm(lie_log(mean)) < 1e-9


class TestCosine:
    def test_grid_is_81_points(self):
        maps, _ = gen_cosine_curves(ScenarioSpec("cosine", seed=0))
        assert maps[0].lattice.shape == (81,)
        assert maps[0].lattice.spacing[0] == pytest.approx(0.1)

    def test_template_peak_and_boundary(self):
        assert cosine_template(0.0, 2.0) == pytest.approx(1.0)
        assert cosine_template(2.0, 2.0) == 0.0
        assert cosine_template(-2.0, 2.0) == 0.0
        assert cosine_template(1.0, 2.0) == pytest.approx(np.cos(np.pi / 4))

    def test_default_noise_sd(self):
        assert ScenarioSpec("cosine").effective_noise_sd == 0.1


class TestGlyph:
    def test_zero_angle_is_base(self):
        """Subject 1 of the -15, 0, 15 degree cycle is the base glyph."""
        maps, truth = gen_rotated_glyphs(ScenarioSpec("glyph", noise_sd=0.0))
        assert truth.angles_deg == (-15.0, 0.0, 15.0)
        assert np.array_equal(maps[1].values, truth.template.values)

    def test_shape_28x28(self):
        assert base_glyph().lattice.shape == (28, 28)

    def test_four_quarter_turns_compose_to_identity(self):
        g = base_glyph()
        out = g
        for _ in range(4):
            out = rotate_glyph(out, 90.0)
        assert np.max(np.abs(out.values - g.values)) < 1e-6

    def test_oracle_derotation_improves_correlation(self):
        spec = ScenarioSpec("glyph", n_subjects=3, noise_sd=0.0)
        maps, truth = gen_rotated_glyphs(spec)
        raw = np.corrcoef(np.stack([m.values for m in maps]))
        derot = [rotate_glyph(m, -a) for m, a in zip(maps, truth.angles_deg)]
        fixed = np.corrcoef(np.stack([m.values for m in derot]))
        iu = np.triu_indices(3, 1)
        assert fixed[iu].mean() > raw[iu].mean()

    def test_truth_matches_model_convention(self):
        # Y_i = template(T_i(.)) at lattice points, up to interpolation error
        spec = ScenarioSpec("glyph", n_subjects=3, noise_sd=0.0)
        maps, truth = gen_rotated_glyphs(spec)
        from groupreg.interp import interpolate
        for amap, t in zip(maps, truth.transforms):
            pts = affine_apply(t, amap.lattice.locations())
            recon = interpolate(truth.template, pts)
            assert np.max(np.abs(recon - amap.values)) < 1e-9


class TestSpecValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ValidationError):
            ScenarioSpec("pyramid")

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            ScenarioSpec("cosine", seed=-3)

    def test_generate_dispatch(self):
        for name in ("indicator", "cosine", "glyph"):
            maps, truth = generate(ScenarioSpec(name, seed=1))
            assert len(maps) == 3
