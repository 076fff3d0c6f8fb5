import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupreg import interp
from groupreg.grids import ActivationMap, Lattice, make_lattice_1d
from groupreg.interp import Warp, interpolate
from groupreg.sampler import coarse_grid
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


def _about_center(lattice, factor):
    """The homogeneous matrix that scales by `factor` about the lattice's
    center: for factor > 1 it takes the sites to points between the sites,
    and past the border, of the lattice."""
    lower, upper = lattice.bounds()
    return AffineTransform.from_parts(factor * np.eye(lattice.dim),
                                      (1.0 - factor) * 0.5 * (lower + upper)).matrix


def assert_warp_is_the_two_call_path(amap, h):
    want = interpolate(amap, affine_apply(h, amap.lattice.locations()))
    got = Warp(amap)(h)
    assert np.array_equal(got, want, equal_nan=True)
    return got


class TestWarp:
    """`Warp(amap)(h)` is `interpolate(amap, affine_apply(h, S))` bit for bit,
    S the lattice's sites."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_random_transforms(self, dim):
        amap = _off_lattice(dim)
        rng = np.random.default_rng(10 + dim)
        sites = amap.lattice.locations()
        warp = Warp(amap)
        for scale in (1e-4, 1e-2, 0.2, 1.0):
            for _ in range(50):
                t = lie_exp(scale * rng.standard_normal(dim * (dim + 1)))
                assert np.array_equal(warp(t), interpolate(amap, affine_apply(t, sites)))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_sites_off_the_lattice_and_in_the_padding(self, dim):
        """A stretch about the center, perturbed, moves the sites to points
        between and around the lattice's sites; shifts by fractions of the
        extent then put them past the lattice, where the stencils read the
        zero padding, and past the clip bounds."""
        amap = _off_lattice(dim)
        lower, upper = amap.lattice.bounds()
        extent = upper - lower
        rng = np.random.default_rng(3)
        spread = (lie_exp(0.05 * rng.standard_normal(dim * (dim + 1)))
                  @ _about_center(amap.lattice, 1.4))
        for frac in (-3.0, -0.97, -0.5, 0.03, 0.5, 0.97, 3.0, 1e6):
            shift = AffineTransform.translation(frac * extent).matrix
            got = assert_warp_is_the_two_call_path(amap, shift @ spread)
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
            amap, AffineTransform.from_parts(a, np.zeros(dim)).matrix)
        assert np.isnan(got).any() and np.isfinite(got).any()

    def test_needs_four_sites_per_axis(self):
        for shape in ((3,), (3, 5), (5, 3)):
            lat = Lattice(shape, np.ones(len(shape)), np.zeros(len(shape)))
            with pytest.raises(ValueError, match="needs >= 4 sites per axis"):
                Warp(ActivationMap(lat, np.zeros(lat.n_sites)))


STACK_LATTICES = {
    "curve": make_lattice_1d(-5.0, 5.0, 0.05),
    "glyph": Lattice((28, 28), np.array([1.0, 1.0]), np.zeros(2)),
    "anisotropic": Lattice((9, 13), np.array([0.7, 1.3]), np.array([-2.0, 0.5])),
    "2d_offset": Lattice((5, 6), np.array([0.3, 0.1]), np.array([5.0, -2.2])),
}


def _stack_of_525(lattice, rng):
    """The coarse grid, then random transforms, to 525 matrices; with
    matrices whose images are not finite, overflow, or lie far outside the
    lattice at rows 0, 1, 2, 3 and spread over the rest."""
    d = lattice.dim
    grid = coarse_grid(lattice)
    extra = [lie_exp(0.2 * rng.standard_normal(d * (d + 1))) for _ in range(525 - len(grid))]
    stack = np.concatenate([grid, np.array(extra).reshape(-1, d + 1, d + 1)])
    lower, upper = lattice.bounds()
    nan, inf, overflow, far = (np.eye(d + 1) for _ in range(4))
    nan[0, 0] = np.nan
    inf[0, d] = np.inf
    overflow[0, 0] = 1e308
    far[:d, d] = 1e6 * (upper - lower)
    for k, h in enumerate((nan, overflow, far, inf) * 5):
        stack[(k * 131) % 525] = h
    return stack


class TestStackedWarp:
    """`Warp(amap)(stack)` is the per-matrix calls, row by row, bit for bit,
    and a `Warp` of several maps is, row by row, the one-map `Warp` of each
    row's map."""

    @pytest.mark.parametrize("pass_points", [None, 1, 1 << 22], ids=["cap", "one", "large"])
    @pytest.mark.parametrize("name", sorted(STACK_LATTICES))
    def test_stack_is_the_per_matrix_calls(self, monkeypatch, name, pass_points):
        if pass_points is not None:
            monkeypatch.setattr(interp, "_PASS_POINTS", pass_points)
        lattice = STACK_LATTICES[name]
        rng = np.random.default_rng(len(name))
        maps = [ActivationMap(lattice, rng.normal(size=lattice.n_sites)) for _ in range(3)]
        amap = maps[0]
        warp = Warp(amap)
        several = Warp(maps)
        assert several.chunk == warp.chunk
        ones = [warp, *(Warp(m) for m in maps[1:])]
        stack = _stack_of_525(lattice, rng)
        want = np.array([interpolate(amap, affine_apply(h, lattice.locations())) for h in stack])
        assert np.isnan(want).any() and np.isfinite(want).any() and (want == 0.0).all(1).any()
        sizes = {1, warp.chunk - 1, warp.chunk, warp.chunk + 1, 525} & set(range(1, 526))
        for n in sorted(sizes):
            for rows in (slice(None, n), slice(-n, None)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = warp(stack[rows])
                    which = rng.integers(0, len(maps), size=n)
                    got_several = several(stack[rows], which)
                assert got.shape == got_several.shape == (n, lattice.n_sites)
                singles = np.array([warp(h) for h in stack[rows]])
                assert np.array_equal(got, singles, equal_nan=True)
                assert np.array_equal(got, want[rows], equal_nan=True)
                own = np.array([ones[j](h) for j, h in zip(which, stack[rows])])
                assert np.array_equal(got_several, own, equal_nan=True)
        # Without `which`, row k of a stack of one matrix per map is on map k;
        # these parts hold a NaN, an overflowing, a far and an infinite matrix.
        for lo in (0, 130, 261, 392):
            part = stack[lo:lo + len(maps)]
            want = np.array([one(h) for one, h in zip(ones, part)])
            assert np.array_equal(several(part), want, equal_nan=True)

    @pytest.mark.parametrize("name", ["curve", "glyph", "anisotropic"])
    def test_several_maps_are_interpolate_row_by_row(self, name):
        """Row k of `Warp(maps)(h, which)` is `interpolate(maps[which[k]],
        affine_apply(h[k], S))` bit for bit, S the lattice's sites, on
        stacks that end at a kernel-pass boundary and one row past it; and
        without `which`, row k is on maps[k]. The lattices: a 201-site curve,
        28x28, and an anisotropic lattice off the origin."""
        lattice = STACK_LATTICES[name]
        sites = lattice.locations()
        rng = np.random.default_rng(50 + len(name))
        maps = [ActivationMap(lattice, rng.normal(size=lattice.n_sites)) for _ in range(3)]
        warp = Warp(maps)
        stack = _stack_of_525(lattice, rng)
        which = rng.integers(0, len(maps), size=len(stack))
        want = np.array([interpolate(maps[j], affine_apply(h, sites))
                         for j, h in zip(which, stack)])
        assert np.isnan(want).any() and np.isfinite(want).any()
        sizes = sorted({1, warp.chunk, warp.chunk + 1, 2 * warp.chunk, 2 * warp.chunk + 1, 525})
        assert warp.chunk > 1 and sizes[-2] < 525
        for n in sizes:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = warp(stack[:n], which[:n])
            assert np.array_equal(got, want[:n], equal_nan=True)
        for lo in (0, 130, 261, 392):
            part = stack[lo:lo + len(maps)]
            want = np.array([interpolate(m, affine_apply(h, sites)) for m, h in zip(maps, part)])
            assert np.array_equal(warp(part), want, equal_nan=True)

    def test_threads_sample_with_their_own_buffers(self):
        """Each thread keeps its own kernel buffers (`interp._SCRATCH`), so
        stacks sampled in two threads at once give the bits of sampling them
        one after the other."""
        lattice = STACK_LATTICES["glyph"]
        rng = np.random.default_rng(9)
        warps = [Warp(ActivationMap(lattice, rng.normal(size=lattice.n_sites))) for _ in range(2)]
        stacks = [_stack_of_525(lattice, rng) for _ in range(2)]
        want = [warp(stack) for warp, stack in zip(warps, stacks)]
        got = [[], []]

        def sample(j):
            for _ in range(3):
                got[j].append(warps[j](stacks[j]))

        threads = [threading.Thread(target=sample, args=(j,)) for j in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for rows, expect in zip(got, want):
            assert len(rows) == 3
            assert all(np.array_equal(row, expect, equal_nan=True) for row in rows)

    def test_several_maps_need_one_lattice_and_a_map_per_row(self):
        lattice = STACK_LATTICES["glyph"]
        other = Lattice((28, 28), np.array([1.0, 1.0]), np.ones(2))
        maps = [ActivationMap(lat, np.zeros(lat.n_sites)) for lat in (lattice, lattice, other)]
        with pytest.raises(ValueError, match="share one lattice"):
            Warp(maps)
        several = Warp(maps[:2])
        with pytest.raises(ValueError, match="3 matrices for 2 maps"):
            several(np.array([np.eye(3)] * 3))

    @pytest.mark.parametrize("name", sorted(STACK_LATTICES))
    def test_passes_hold_at_most_the_byte_cap(self, monkeypatch, name):
        """Each kernel pass samples `chunk` matrices' sites, the most whose
        points fit `interp._PASS_POINTS` (4 doubles a point, so 128 000
        bytes), and the last pass the rest, for the values and for the values
        with their Jacobian."""
        lattice = STACK_LATTICES[name]
        q = lattice.n_sites
        warp = Warp(ActivationMap(lattice, np.ones(q)))
        assert warp.chunk * q <= interp._PASS_POINTS < (warp.chunk + 1) * q
        points = []
        sample = Warp.sample
        monkeypatch.setattr(Warp, "sample",
                            lambda self, u, deriv=False, offset=None: points.append(u.shape[1])
                            or sample(self, u, deriv, offset))
        stack = coarse_grid(lattice)
        full, rest = divmod(len(stack), warp.chunk)
        for sample_stack in (warp, lambda h: warp.value_and_jacobian(h[:, :-1])):
            points.clear()
            sample_stack(stack)
            assert points == [warp.chunk * q] * full + ([rest * q] if rest else [])


def _tops_around(lattice, rng, scale, n):
    """The top rows of n random transforms within `scale` of a 1.6-fold
    stretch about the lattice's center, which sample between the sites and
    past the border; then the identity's, which samples at the sites, the
    border sites among them; then a shift's by 3 extents, which samples past
    the padding: (n + 2, d, d + 1)."""
    d = lattice.dim
    lower, upper = lattice.bounds()
    stretch = _about_center(lattice, 1.6)
    far = AffineTransform.translation(3.0 * (upper - lower)).matrix
    hs = [lie_exp(scale * rng.standard_normal(d * (d + 1))) @ stretch for _ in range(n)]
    return np.array([h[:-1] for h in hs + [np.eye(d + 1), far]])


def _top(h):
    return h[:-1].copy()


def _matrix(top):
    h = np.eye(top.shape[0] + 1)
    h[:-1] = top
    return h


def _one(warp, top):
    """`warp.value_and_jacobian` of the one-row stack of `top`: its row's
    values and Jacobian."""
    vals, jac = warp.value_and_jacobian(top[None])
    return vals[0], jac[0]


class TestValueAndJacobian:
    """`Warp.value_and_jacobian` gives `Warp.__call__`'s values and their
    derivative in the top d rows of H, from one kernel pass."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_values_are_the_bits_of_the_value_path(self, monkeypatch, dim):
        """A one-row stack gives `Warp.__call__`'s bits; each row of a stack
        of tops, in passes of `chunk` matrices (all in one pass, and one
        matrix per pass), gives the one-row call's values and Jacobian, bit
        for bit and in the same memory layout."""
        amap = _off_lattice(dim)
        sites = amap.lattice.locations()
        rng = np.random.default_rng(20 + dim)
        warp = Warp(amap)
        monkeypatch.setattr(interp, "_PASS_POINTS", 1)
        one_per_pass = Warp(amap)
        monkeypatch.undo()
        for scale in (0.0, 1e-3, 0.1, 0.5):
            tops = _tops_around(amap.lattice, rng, scale, 18)
            singles = []
            for top in tops:
                vals, jac = _one(warp, top)
                assert np.array_equal(vals, warp(_matrix(top)))
                assert np.array_equal(vals, interpolate(amap, affine_apply(_matrix(top), sites)))
                assert jac.shape == (sites.shape[0], dim * (dim + 1))
                singles.append((vals, jac))
            assert one_per_pass.chunk == 1 < len(tops) <= warp.chunk
            for stacked in (warp, one_per_pass):
                vals, jac = stacked.value_and_jacobian(tops)
                assert vals.shape == (len(tops), sites.shape[0]) and jac.shape[:2] == vals.shape
                for row_vals, row_jac, (want_vals, want_jac) in zip(vals, jac, singles):
                    assert np.array_equal(row_vals, want_vals)
                    assert np.array_equal(row_jac, want_jac)
                    assert row_jac.strides == want_jac.strides
        points = affine_apply(_about_center(amap.lattice, 1.6), sites)
        u = np.ascontiguousarray(amap.lattice.to_index_coords(points).T)
        assert np.array_equal(warp.sample(u, deriv=True)[0], warp.sample(u))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_jacobian_matches_central_differences(self, dim):
        """Catmull-Rom is C^1 but not C^2, so a central difference with step
        h in H is off by O(h) where it straddles a knot, and by rounding of
        O(eps / h) elsewhere. At h = 1e-7 both stay near 1e-9 of the largest
        derivative; the bound is 1e-7 of it. The random transforms' points
        are taken, not the identity's, which lie on the knots."""
        amap = _off_lattice(dim)
        rng = np.random.default_rng(30 + dim)
        warp = Warp(amap)
        h = 1e-7
        for top in _tops_around(amap.lattice, rng, 0.2, 10)[:-2]:
            _, jac = _one(warp, top)
            fd = np.empty_like(jac)
            for col in range(top.size):
                step = np.zeros(top.size)
                step[col] = h
                plus, minus = (_matrix(top + s.reshape(top.shape)) for s in (step, -step))
                fd[:, col] = (warp(plus) - warp(minus)) / (2.0 * h)
            assert np.max(np.abs(jac - fd)) <= 1e-7 * np.max(np.abs(jac))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_jacobian_is_zero_where_the_stencil_reads_only_padding(self, dim):
        """Past index -2 or n + 1 on any axis the stencil holds no lattice site."""
        amap = _off_lattice(dim)
        lattice = amap.lattice
        rng = np.random.default_rng(40 + dim)
        tops = _tops_around(lattice, rng, 0.05, 3)
        vals, jac = Warp(amap).value_and_jacobian(tops)
        u = np.array([lattice.to_index_coords(affine_apply(_matrix(top), lattice.locations()))
                      for top in tops])
        padding = np.any((u < -2.0) | (u >= np.asarray(lattice.shape) + 1.0), axis=-1)
        assert padding.sum() >= 10 and (~padding).sum() >= 100
        assert not vals[padding].any() and not jac[padding].any()
        assert np.abs(jac[~padding]).sum(axis=1).all()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_an_image_that_overflows_gives_nan_rows(self, dim):
        amap = _off_lattice(dim)
        a = np.eye(dim)
        a[0, 0] = 1e308
        t = AffineTransform.from_parts(a, np.zeros(dim)).matrix
        warp = Warp(amap)
        finite = [_top(lie_exp(0.1 * np.arange(1.0, dim * (dim + 1) + 1.0) / dim ** 2)),
                  np.eye(dim + 1)[:-1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, jac = _one(warp, _top(t))
            stacked = warp.value_and_jacobian(np.array([finite[0], _top(t), finite[1]]))
        assert np.array_equal(vals, warp(t), equal_nan=True)
        assert np.array_equal(np.isnan(jac).any(axis=1), np.isnan(vals))
        assert np.isnan(vals).any() and np.isfinite(jac).any()
        # In a stack, the overflowing row is that row alone, and the finite
        # rows around it keep their bits.
        want = [_one(warp, finite[0]), (vals, jac), _one(warp, finite[1])]
        for k, (want_vals, want_jac) in enumerate(want):
            assert np.array_equal(stacked[0][k], want_vals, equal_nan=True)
            assert np.array_equal(stacked[1][k], want_jac, equal_nan=True)
        assert np.isfinite(stacked[0][[0, 2]]).all() and np.isfinite(stacked[1][[0, 2]]).all()

    def test_singular_rows_are_sampled(self):
        """LM may step through a singular H; the rows need not be invertible."""
        amap = _off_lattice(2)
        top = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 5.0]])
        vals, jac = _one(Warp(amap), top)
        assert np.all(vals == interpolate(amap, np.array([[1.0, 5.0]]))[0])
        assert np.isfinite(jac).all()
