"""Deterministic synthetic-data generators for the benchmark scenarios.

Three scenarios: a 1D indicator template on [-5, 5] (grid 0.05, noise sd
0.5), a 1D truncated cosine on [-4, 4] (grid 0.1, noise sd 0.1), and a 2D
built-in "7"-like glyph on a 28x28 lattice rotated per subject. Curves are
generated by evaluating the template at affinely transformed arguments,
Y_i(s) = X(T_i(s)) + noise; the glyph is rotated about the image center by
cubic interpolation, subject i by the i-th angle of the cycle -15, 0, 15
degrees.

The curves' true transforms are drawn seeded (shifts uniform within 10% of
the domain, scales in [0.9, 1.1]) and, for more than one subject,
standardized to Karcher mean identity so the generating template lives in
the midpoint space the model estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grids import ActivationMap, Lattice, make_lattice_1d
from .interp import Warp
from .transforms import (AffineTransform, affine_apply, standardize)

SCENARIO_DEFAULT_NOISE = {"indicator": 0.5, "cosine": 0.1, "glyph": 0.0}
COSINE_HALFWIDTH = 2.0   # truncation half-width L of the cosine template


@dataclass(frozen=True)
class ScenarioSpec:
    scenario: str
    n_subjects: int = 3
    noise_sd: float = -1.0          # < 0: scenario default
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIO_DEFAULT_NOISE:
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        if self.n_subjects < 1:
            raise ValidationError("n_subjects must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")

    @property
    def effective_noise_sd(self):
        if self.noise_sd >= 0:
            return self.noise_sd
        return SCENARIO_DEFAULT_NOISE[self.scenario]


@dataclass(frozen=True)
class TruthRecord:
    template: ActivationMap
    transforms: list
    noise_sd: float
    angles_deg: tuple = ()


def indicator_template(s):
    s = np.asarray(s, dtype=float)
    return ((s >= -1.0) & (s <= 1.0)).astype(float)


def cosine_template(s, halfwidth):
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < halfwidth
    return np.where(inside, np.cos(np.pi * s / (2.0 * halfwidth)), 0.0)


def draw_true_transforms_1d(lattice, n, rng):
    """Seeded shift/scale truths, standardized to Karcher mean identity."""
    lower, upper = lattice.bounds()
    extent = float(upper[0] - lower[0])
    ts = []
    for _ in range(n):
        shift = rng.uniform(-0.1, 0.1) * extent
        scale = rng.uniform(0.9, 1.1)
        # Y(s) = X(scale * s - shift): support moves by +shift/scale.
        ts.append(AffineTransform.from_parts(np.array([[scale]]), np.array([-shift])))
    return [AffineTransform(h) for h in standardize(ts)[0]] if n > 1 else ts


def _curves(template_fn, lattice, spec):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed,
                                                       spawn_key=(7,)))
    locs = lattice.locations()
    transforms = draw_true_transforms_1d(lattice, spec.n_subjects, rng)
    sd = spec.effective_noise_sd
    maps = []
    for t in transforms:
        clean = template_fn(affine_apply(t, locs)[:, 0])
        noise = sd * rng.standard_normal(lattice.n_sites) if sd > 0 else 0.0
        maps.append(ActivationMap(lattice, clean + noise))
    template = ActivationMap(lattice, template_fn(locs[:, 0]))
    return maps, TruthRecord(template=template, transforms=transforms, noise_sd=sd)


def gen_indicator_curves(spec):
    """Indicator template on [-5, 5], 201 sites at spacing 0.05."""
    if spec.scenario != "indicator":
        raise ValidationError("spec.scenario must be 'indicator'")
    lattice = make_lattice_1d(-5.0, 5.0, 0.05)
    return _curves(indicator_template, lattice, spec)


def gen_cosine_curves(spec):
    """Truncated cosine on [-4, 4], 81 sites at spacing 0.1."""
    if spec.scenario != "cosine":
        raise ValidationError("spec.scenario must be 'cosine'")
    lattice = make_lattice_1d(-4.0, 4.0, 0.1)
    return _curves(lambda s: cosine_template(s, COSINE_HALFWIDTH), lattice, spec)


def base_glyph():
    """Built-in 28x28 "7"-like glyph: a top bar and a diagonal stroke."""
    img = np.zeros((28, 28))
    img[6:9, 6:22] = 1.0   # top bar
    for r in range(8, 24):
        c = int(round(21 - (r - 8) * 0.75))
        img[r, c - 1:c + 2] = 1.0
    return ActivationMap(Lattice(shape=(28, 28), spacing=np.array([1.0, 1.0]),
                                 origin=np.array([0.0, 0.0])), img.ravel())


def rotation_about_center(lattice, angle_rad):
    """Affine rotation about the lattice's bounding-box center."""
    lower, upper = lattice.bounds()
    center = 0.5 * (lower + upper)
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    a = np.array([[c, -s], [s, c]])
    return AffineTransform.from_parts(a, center - a @ center)


def rotate_glyph(amap, angle_deg):
    """Rotate an image counterclockwise (in index coordinates) about its center."""
    t = rotation_about_center(amap.lattice, -np.deg2rad(angle_deg))
    return amap.with_values(Warp(amap)(t.matrix))


def gen_rotated_glyphs(spec):
    if spec.scenario != "glyph":
        raise ValidationError("spec.scenario must be 'glyph'")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed,
                                                       spawn_key=(11,)))
    glyph = base_glyph()
    angles = tuple((-15.0, 0.0, 15.0)[i % 3] for i in range(spec.n_subjects))
    sd = spec.effective_noise_sd
    maps = []
    transforms = []
    for ang in angles:
        rotated = rotate_glyph(glyph, ang)
        noise = sd * rng.standard_normal(rotated.values.size) if sd > 0 else 0.0
        maps.append(rotated.with_values(rotated.values + noise))
        transforms.append(rotation_about_center(glyph.lattice, -np.deg2rad(ang)))
    truth = TruthRecord(template=glyph, transforms=transforms, noise_sd=sd,
                        angles_deg=angles)
    return maps, truth


def generate(spec):
    if spec.scenario == "indicator":
        return gen_indicator_curves(spec)
    if spec.scenario == "cosine":
        return gen_cosine_curves(spec)
    return gen_rotated_glyphs(spec)
