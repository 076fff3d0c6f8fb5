import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupreg.grids import ActivationMap, Lattice, make_lattice_1d
from groupreg.interp import Warp, interpolate
from groupreg.transforms import AffineTransform, affine_apply, lie_exp


# Reference kernel: a per-axis stencil with index clipping and an in-range
# mask (zero fill outside the lattice), contracted by one einsum. It is the kernel `interpolate` replaced and
# is valid wherever the floor of an index coordinate fits an int.
def _oracle_weights(t):
    t2 = t * t
    t3 = t2 * t
    w0 = 0.5 * (-t3 + 2.0 * t2 - t)
    w1 = 0.5 * (3.0 * t3 - 5.0 * t2 + 2.0)
    w2 = 0.5 * (-3.0 * t3 + 4.0 * t2 + t)
    w3 = 0.5 * (t3 - t2)
    return np.stack([w0, w1, w2, w3], axis=-1)


def _oracle_axis(u, n):
    base = np.floor(u).astype(int)
    idx = base[:, None] + np.arange(-1, 3)[None, :]
    weights = _oracle_weights(u - base)
    return np.clip(idx, 0, n - 1), (idx >= 0) & (idx < n), weights


def oracle_interpolate(amap, points):
    lat = amap.lattice
    u = lat.to_index_coords(np.asarray(points, dtype=float))
    if lat.dim == 1:
        idx, valid, w = _oracle_axis(u[:, 0], lat.shape[0])
        return np.einsum("qk,qk->q", w, amap.values[idx] * valid)
    idx0, valid0, w0 = _oracle_axis(u[:, 0], lat.shape[0])
    idx1, valid1, w1 = _oracle_axis(u[:, 1], lat.shape[1])
    patch = amap.grid[idx0[:, :, None], idx1[:, None, :]]
    patch = patch * (valid0[:, :, None] & valid1[:, None, :])
    return np.einsum("qj,qk,qjk->q", w0, w1, patch)


def linear_map():
    lat = make_lattice_1d(0.0, 10.0, 1.0)
    return ActivationMap(lat, 3.0 * np.arange(11.0) + 1.0)


class TestInterpolate1D:
    def test_lattice_points_exact(self):
        amap = linear_map()
        pts = amap.lattice.locations()
        got = interpolate(amap, pts)
        assert np.max(np.abs(got - amap.values)) < 1e-12

    def test_linear_field_exact_interior(self):
        got = interpolate(linear_map(), np.array([[2.5]]))
        assert got[0] == pytest.approx(8.5, abs=1e-10)

    def test_constant_field_exact(self):
        lat = make_lattice_1d(-2.0, 2.0, 0.5)
        amap = ActivationMap(lat, np.full(9, 4.2))
        q = np.linspace(-1.4, 1.4, 23)[:, None]
        assert np.max(np.abs(interpolate(amap, q) - 4.2)) < 1e-10

    def test_far_outside_fill_zero(self):
        assert interpolate(linear_map(), np.array([[40.0]]))[0] == 0.0
        assert interpolate(linear_map(), np.array([[-7.0]]))[0] == 0.0

    def test_needs_four_sites(self):
        lat = make_lattice_1d(0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            interpolate(ActivationMap(lat, np.zeros(3)), np.array([[1.0]]))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.5, 9.5))
    def test_continuity(self, q):
        amap = linear_map()
        rng_span = np.ptp(amap.values)
        a = interpolate(amap, np.array([[q]]))[0]
        b = interpolate(amap, np.array([[q + 1e-6]]))[0]
        assert abs(a - b) < 1e-4 * rng_span


class TestInterpolate2D:
    def test_separability(self):
        lat2 = Lattice((8, 8), np.array([1.0, 1.0]), np.zeros(2))
        f = np.sin(0.3 * np.arange(8.0))
        g = np.cos(0.2 * np.arange(8.0))
        m2 = ActivationMap(lat2, np.outer(f, g).ravel())
        m1f = ActivationMap(make_lattice_1d(0, 7, 1.0), f)
        m1g = ActivationMap(make_lattice_1d(0, 7, 1.0), g)
        rng = np.random.default_rng(0)
        q = rng.uniform(1.0, 6.0, size=(50, 2))
        got = interpolate(m2, q)
        want = interpolate(m1f, q[:, :1]) * interpolate(m1g, q[:, 1:])
        assert np.max(np.abs(got - want)) < 1e-10

    def test_linear_2d_exact(self):
        lat2 = Lattice((6, 6), np.array([1.0, 1.0]), np.zeros(2))
        locs = lat2.locations()
        vals = 2.0 * locs[:, 0] - 0.5 * locs[:, 1] + 3.0
        amap = ActivationMap(lat2, vals)
        q = np.array([[1.25, 2.75], [2.5, 2.5], [3.9, 1.1]])
        want = 2.0 * q[:, 0] - 0.5 * q[:, 1] + 3.0
        assert np.max(np.abs(interpolate(amap, q) - want)) < 1e-10

    def test_resample_identity(self):
        lat2 = Lattice((5, 5), np.array([1.0, 1.0]), np.zeros(2))
        amap = ActivationMap(lat2, np.random.default_rng(1).normal(size=25))
        out = interpolate(amap, affine_apply(AffineTransform.identity(2), lat2.locations()))
        assert np.max(np.abs(out - amap.values)) < 1e-12

    def test_nonunit_spacing_offset_lattice(self):
        lat = Lattice((6, 6), np.array([0.5, 0.25]), np.array([-1.0, 2.0]))
        locs = lat.locations()
        vals = locs[:, 0] + 4.0 * locs[:, 1]
        amap = ActivationMap(lat, vals)
        q = np.array([[-0.3, 2.6], [0.2, 2.55]])  # stencils fully interior
        want = q[:, 0] + 4.0 * q[:, 1]
        assert np.max(np.abs(interpolate(amap, q) - want)) < 1e-10


class TestKernelMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(dim=st.sampled_from([1, 2]),
           shape=st.lists(st.integers(4, 9), min_size=2, max_size=2),
           spacing=st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]), min_size=2, max_size=2),
           origin=st.lists(st.integers(-8, 8), min_size=2, max_size=2),
           angle=st.floats(-np.pi, np.pi), log_scale=st.floats(-0.7, 0.7),
           shift=st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_warps_far_points_and_sites(self, dim, shape, spacing, origin,
                                               angle, log_scale, shift, seed):
        """New kernel == the reference within 1e-14 max|values| on any query."""
        rng = np.random.default_rng(seed)
        # Dyadic spacing and origin make site coordinates exact integers in
        # index space, so the floor sits exactly on a site.
        lat = Lattice(tuple(shape[:dim]), np.array(spacing[:dim]),
                      0.25 * np.array(origin[:dim], dtype=float))
        amap = ActivationMap(lat, rng.normal(size=lat.n_sites) * 10.0 ** rng.uniform(-3, 3))
        locs = lat.locations()
        if dim == 1:
            warp = AffineTransform.from_parts([[np.exp(log_scale)]], shift[:1])
        else:
            c, s = np.cos(angle), np.sin(angle)
            warp = AffineTransform.from_parts(np.exp(log_scale) * np.array([[c, -s], [s, c]]),
                                              shift)
        lower, upper = lat.bounds()
        extent = upper - lower
        # Every integer index from -6 to n + 5 on each axis, through the clip
        # points at -3 and n + 1, and points up to 1e6 extents away.
        ints = [np.arange(-6, n + 6) for n in lat.shape]
        grid_idx = np.stack(np.meshgrid(*ints, indexing="ij"), axis=-1).reshape(-1, dim)
        far = lower + extent * rng.choice([-1e6, -40.0, -1.5, 2.5, 40.0, 1e6], size=(50, dim))
        points = np.concatenate([
            affine_apply(warp, locs),
            lower + extent * rng.uniform(-0.3, 1.3, size=(200, dim)),
            lat.origin + grid_idx * lat.spacing,
            far + rng.uniform(-1.0, 1.0, size=far.shape),
        ])
        got = interpolate(amap, points)
        want = oracle_interpolate(amap, points)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(amap.values))

    def test_non_dyadic_offset_lattice(self):
        lat = Lattice((7, 9), np.array([0.7, 1.3]), np.array([-2.1, 3.4]))
        amap = ActivationMap(lat, np.random.default_rng(5).normal(size=63))
        rng = np.random.default_rng(6)
        lower, upper = lat.bounds()
        points = lower + (upper - lower) * rng.uniform(-0.5, 1.5, size=(500, 2))
        got = interpolate(amap, points)
        want = oracle_interpolate(amap, points)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(amap.values))


class TestNonFiniteQueries:
    def test_nan_and_inf_give_nan_without_invalid_casts(self):
        amap = linear_map()
        q = np.array([[np.nan], [np.inf], [-np.inf], [1e30], [-1e30], [2.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = interpolate(amap, q)
        assert np.isnan(got[:3]).all()
        assert got[3] == 0.0 and got[4] == 0.0
        assert got[5] == pytest.approx(8.5, abs=1e-10)

    def test_2d_point_with_one_bad_coordinate(self):
        lat = Lattice((6, 6), np.array([1.0, 1.0]), np.zeros(2))
        amap = ActivationMap(lat, np.arange(36.0) + 1.0)
        q = np.array([[np.nan, 2.0], [2.0, np.inf], [1e30, 2.0], [2.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = interpolate(amap, q)
        assert np.isnan(got[:2]).all()
        assert got[2] == 0.0
        assert got[3] == pytest.approx(amap.grid[2, 3])


def _off_lattice(dim):
    lat = Lattice((37,) if dim == 1 else (11, 9), np.array([0.7, 1.3][:dim]),
                  np.array([-2.1, 3.4][:dim]))
    return ActivationMap(lat, np.random.default_rng(dim).normal(size=lat.n_sites))


def assert_warp_is_the_two_call_path(amap, sites, t):
    want = interpolate(amap, affine_apply(t, sites))
    got = Warp(amap, sites)(t)
    assert np.array_equal(got, want, equal_nan=True)
    return got


class TestWarp:
    """`Warp(amap, sites)(t)` is `interpolate(amap, affine_apply(t, sites))` bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_random_transforms(self, dim):
        amap = _off_lattice(dim)
        rng = np.random.default_rng(10 + dim)
        sites = amap.lattice.locations()
        warp = Warp(amap, sites)
        for scale in (1e-4, 1e-2, 0.2, 1.0):
            for _ in range(50):
                t = lie_exp(scale * rng.standard_normal(dim * (dim + 1)))
                assert np.array_equal(warp(t), interpolate(amap, affine_apply(t, sites)))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_sites_off_the_lattice_and_in_the_padding(self, dim):
        """Shifts by fractions of the extent put sites past the lattice, where
        the stencils read the zero padding, and past the clip bounds."""
        amap = _off_lattice(dim)
        lower, upper = amap.lattice.bounds()
        extent = upper - lower
        # Other sites than the lattice's: random points around it.
        sites = lower + extent * np.random.default_rng(3).uniform(-0.2, 1.2, size=(300, dim))
        for frac in (-3.0, -0.97, -0.5, 0.03, 0.5, 0.97, 3.0, 1e6):
            got = assert_warp_is_the_two_call_path(amap, sites,
                                                   AffineTransform.translation(frac * extent))
            if abs(frac) >= 3.0:
                assert not got.any()
            elif abs(frac) > 0.9:
                assert got.any() and (got == 0.0).any()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_an_image_that_overflows_gives_nan_rows(self, dim):
        amap = _off_lattice(dim)
        a = np.eye(dim)
        a[0, 0] = 1e308          # sites away from 0 on axis 0 map to +-inf
        got = assert_warp_is_the_two_call_path(
            amap, amap.lattice.locations(), AffineTransform.from_parts(a, np.zeros(dim)))
        assert np.isnan(got).any() and np.isfinite(got).any()

    def test_needs_four_sites_per_axis(self):
        for shape in ((3,), (3, 5), (5, 3)):
            lat = Lattice(shape, np.ones(len(shape)), np.zeros(len(shape)))
            with pytest.raises(ValueError, match="needs >= 4 sites per axis"):
                Warp(ActivationMap(lat, np.zeros(lat.n_sites)), lat.locations())
