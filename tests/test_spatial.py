import tracemalloc

import numpy as np
import pytest

from groupreg import spatial
from groupreg.errors import OutOfLibraryBounds
from groupreg.grids import Lattice, make_lattice_1d
from groupreg.model import Hyperparams, build_geometry
from groupreg.spatial import (_BLOCK_BYTES, JITTER, VAR_FLOOR, CovarianceParams,
                              _offset_distances, _pattern_table, _ranked_sites, _site_coords,
                              batched_nngp_weights,
                              build_neighbor_library, build_ordered_neighbor_sets,
                              conditional_means, cov_matrix, dense_gp_log_density,
                              dense_kriging, kriging_factor, library_weights, locate_entries,
                              lookup_entries, lookup_neighbors, neighbor_distances,
                              nngp_log_density, predecessor_patterns, predecessor_weights)
from groupreg.synth import ScenarioSpec, gen_indicator_curves
from groupreg.transforms import AffineTransform, affine_apply


def grid2d(n, spacing=1.0):
    return Lattice((n, n), np.array([spacing, spacing]), np.zeros(2))


def nngp_weights(target, neighbors, params):
    """Kriging weights B and conditional variance F of one target (one-row oracle).

    neighbors: (k, d) locations (k may be 0, giving B empty and F = alpha).
    F = C(t,t) - B C_N B^T, clamped below at 1e-12 * alpha.
    """
    target = np.asarray(target, dtype=float).reshape(1, -1)
    neighbors = np.atleast_2d(np.asarray(neighbors, dtype=float))
    if neighbors.size == 0:
        return np.empty(0), float(params.alpha)
    c_n = cov_matrix(neighbors, neighbors, params)
    c_n[np.diag_indices_from(c_n)] += JITTER * params.alpha
    c_t = cov_matrix(target, neighbors, params)[0]
    b = np.linalg.solve(c_n, c_t)
    f = params.alpha - float(b @ c_t)
    return b, max(f, VAR_FLOOR * params.alpha)


def argsort_predecessors(lattice, m):
    """Brute-force oracle of `build_ordered_neighbor_sets`: one full stable
    argsort per site of its weighted squared offsets to all its predecessors."""
    sites = _site_coords(lattice.shape)
    weight = (lattice.spacing / lattice.spacing.min()) ** 2
    out = np.full((len(sites), m), -1)
    for l in range(1, len(sites)):
        d2 = ((sites[:l] - sites[l]) ** 2 * weight).sum(axis=1)
        out[l, :min(m, l)] = np.argsort(d2, kind="stable")[:m]
    return out


def float_norm_predecessors(locations, m):
    """Predecessor sets ranked by the norms of differenced float coordinates,
    which depend on the origin and break ties by rounding noise; the sets
    ranked integer offsets exactly only at spacing 1 with an integer origin,
    and in 1D."""
    out = np.full((len(locations), m), -1)
    for l in range(1, len(locations)):
        d = np.linalg.norm(locations[:l] - locations[l], axis=1)
        out[l, :min(m, l)] = np.argsort(d, kind="stable")[:m]
    return out


def unique_rows_table(keys):
    """Pattern id of every row and each pattern's first row, by np.unique(axis=0)."""
    _, first, ids = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return ids.reshape(-1), first


def argsort_library(lattice, margin, m):
    """Brute-force oracle of `build_neighbor_library`: (ranked, pattern_ids,
    pattern_dist), the ranked rows from a full stable argsort of every entry's
    weighted squared offsets to all template sites, and the patterns of those
    rows in lattice order, grouped by np.unique(axis=0)."""
    template = _site_coords(lattice.shape)
    entries = _site_coords(tuple(n + 2 * margin for n in lattice.shape), -margin)
    weight = (lattice.spacing / lattice.spacing.min()) ** 2
    d2 = sum(w * (entries[:, None, a] - template[None, :, a]) ** 2 for a, w in enumerate(weight))
    ranked = np.argsort(d2, axis=1, kind="stable")[:, :min(m, lattice.n_sites)]
    nbr = np.sort(ranked, axis=1)
    offsets = template[nbr] - template[nbr[:, :1]]
    shape_ids, first = unique_rows_table(offsets.reshape(len(offsets), -1))
    shape_dist = _offset_distances(offsets[first], lattice.spacing)
    dist_ids, first = unique_rows_table(shape_dist.reshape(len(shape_dist), -1))
    return ranked, dist_ids[shape_ids], shape_dist[first]


def ranked_entries(library):
    """The library's rows as `_ranked_sites` ranks them, nearest first: the
    rows the library lists in lattice order."""
    return _ranked_sites(_site_coords(library.enlarged.shape, -library.margin), library.template,
                         library.neighbor_indices.shape[1])


def assert_library_rows_are_ranked_rows_sorted(library, ranked):
    assert np.array_equal(library.neighbor_indices, np.sort(ranked, axis=1))


class TestExpCov:
    def test_zero_distance_returns_alpha(self):
        p = CovarianceParams(2.0, 1.3)
        assert cov_matrix([1.0, 2.0], [1.0, 2.0], p)[0, 0] == pytest.approx(2.0)

    def test_unit_distance_analytic(self):
        p = CovarianceParams(1.0, 1.0)
        assert cov_matrix([0.0], [1.0], p)[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        p = CovarianceParams(1.5, 0.7)
        locs = rng.standard_normal((20, 2))
        c = cov_matrix(locs, locs, p)
        assert np.max(np.abs(c - c.T)) <= 1e-15 * np.max(c)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CovarianceParams(0.0, 1.0)
        with pytest.raises(ValueError):
            CovarianceParams(1.0, -1.0)


class TestDenseKriging:
    def test_interpolates_observed_sites(self):
        locs = grid2d(4).locations()
        p = CovarianceParams(1.0, 0.8)
        pm, s = dense_kriging(locs, locs[3:7], p)
        expect = np.zeros((4, 16))
        expect[np.arange(4), 3 + np.arange(4)] = 1.0
        assert np.max(np.abs(pm - expect)) < 1e-7
        assert np.max(np.abs(s)) < 1e-7

    def test_two_point_closed_form(self):
        p = CovarianceParams(1.0, 1.0)
        pm, s = dense_kriging(np.array([[0.0]]), np.array([[1.0]]), p)
        assert pm[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)
        assert s[0, 0] == pytest.approx(1.0 - np.exp(-2.0), abs=1e-9)

    def test_independence_limit(self):
        p = CovarianceParams(2.0, 200.0)
        source = np.array([[0.0], [1.0]])
        target = np.array([[0.4], [0.6]])
        pm, s = dense_kriging(source, target, p)
        assert np.max(np.abs(pm)) < 1e-12
        assert np.allclose(s, 2.0 * np.eye(2), atol=1e-10)

    def test_conditional_covariance_psd(self):
        rng = np.random.default_rng(1)
        locs = grid2d(5).locations()
        targets = locs + rng.uniform(-0.4, 0.4, size=locs.shape)
        _, s = dense_kriging(locs, targets, CovarianceParams(1.0, 0.9))
        eig = np.linalg.eigvalsh(s)
        assert eig.min() > -1e-8


class TestOrderedNeighborSets:
    def test_first_site_empty(self):
        sets = build_ordered_neighbor_sets(grid2d(3), 4)
        assert np.all(sets[0] == -1)

    def test_fewer_predecessors_than_m(self):
        sets = build_ordered_neighbor_sets(make_lattice_1d(0, 9, 1.0), 10)
        assert sorted(sets[2][sets[2] >= 0].tolist()) == [0, 1]

    def test_brute_force_oracle_5x5(self):
        locs = grid2d(5).locations()
        sets = build_ordered_neighbor_sets(grid2d(5), 3)
        l = 12  # site (2, 2)
        d = np.linalg.norm(locs[:l] - locs[l], axis=1)
        expect = np.argsort(d, kind="stable")[:3]
        assert sets[l].tolist() == expect.tolist()

    def test_all_rows_against_brute_force(self):
        locs = grid2d(4).locations()
        sets = build_ordered_neighbor_sets(grid2d(4), 5)
        for l in range(1, 16):
            d = np.linalg.norm(locs[:l] - locs[l], axis=1)
            expect = np.argsort(d, kind="stable")[:min(5, l)]
            got = sets[l][sets[l] >= 0]
            assert got.tolist() == expect.tolist()

    def test_build_memory_is_bounded(self):
        # A V x V float array alone would take 2304^2 x 8 B = 42 MB, a V x V bool one 5.3 MB.
        tracemalloc.start()
        try:
            build_ordered_neighbor_sets(grid2d(48), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_sets_do_not_depend_on_spacing_or_origin(self):
        """At spacing 0.1 the sets are those of spacing 1, wherever the lattice sits."""
        unit = build_ordered_neighbor_sets(grid2d(28), 10)
        for origin in ((0.0, 0.0), (5.0, -2.2)):
            lat = Lattice((28, 28), np.array([0.1, 0.1]), np.array(origin))
            sets = build_ordered_neighbor_sets(lat, 10)
            assert np.array_equal(sets, unit)
            assert len(predecessor_patterns(lat, sets).dist) == 26


class TestSelectionAgainstArgsort:
    """The selection builders give the brute-force argsort builders' tables."""

    LATTICES = {
        # The benchmark lattices at their library margins.
        "glyph": (grid2d(28), 9),
        "cosine": (make_lattice_1d(-4.0, 4.0, 0.1), 13),
        "indicator": (make_lattice_1d(-5.0, 5.0, 0.05), 6),
        "anisotropic": (Lattice((9, 13), np.array([0.7, 1.3]), np.array([-2.0, 0.5])), 3),
        "spacing_0.1": (Lattice((20, 20), np.array([0.1, 0.1]), np.array([5.0, -2.2])), 3),
        "small": (Lattice((5, 6), np.array([1.0, 1.0]), np.zeros(2)), 3),
        "small_anisotropic": (Lattice((4, 5), np.array([0.7, 1.3]), np.array([0.7, 1.3])), 2),
    }
    CASES = [(name, m) for name in sorted(LATTICES) for m in ("1", "3", "10", "V-1", "V", "V+3")]
    # A library of m >= V - 1 holds up to n_lib patterns of V x V distances,
    # so only the small lattices build one.
    LIBRARY_CASES = [(name, m) for name, m in CASES
                     if m[0] != "V" or name in ("cosine", "small", "small_anisotropic")]

    @staticmethod
    def resolve(m, v):
        return {"V-1": v - 1, "V": v, "V+3": v + 3}.get(m) or int(m)

    @pytest.mark.parametrize("name,m", CASES + [(name, m) for name in sorted(LATTICES)
                                                for m in ("2", "25")])
    def test_predecessor_sets(self, name, m):
        lat, _ = self.LATTICES[name]
        m = self.resolve(m, lat.n_sites)
        sets = build_ordered_neighbor_sets(lat, m)
        assert np.array_equal(sets, argsort_predecessors(lat, m))
        if lat.dim == 1 or np.all(lat.spacing == 1.0):
            # In 1D every predecessor lies on one side, and at spacing 1 with
            # origin 0 the norms are square roots of the integer offsets, so
            # ranking float norms gave these sets too.
            assert np.array_equal(sets, float_norm_predecessors(lat.locations(), m))
        if m <= 10:
            patterns = predecessor_patterns(lat, sets)
            k = min(m, lat.n_sites)
            coords = _site_coords(lat.shape)
            mask = sets[:, :k] >= 0
            offsets = np.where(mask[:, :, None], coords[np.where(mask, sets[:, :k], 0)]
                               - coords[:, None, :], 0)
            _, first = unique_rows_table(
                np.concatenate([offsets.reshape(len(offsets), -1), mask], axis=1))
            assert len(patterns.dist) == len(patterns.target_dist) == len(first)
            own = np.arange(lat.n_sites)[:, None]
            assert np.array_equal(patterns.nbr, np.where(mask, sets[:, :k], own))
            # Padded slots: 0 from themselves, inf from every other slot and the site.
            pair = mask[:, :, None] & mask[:, None, :]
            want = np.where(pair | np.eye(k, dtype=bool), _offset_distances(offsets, lat.spacing),
                            np.inf)
            assert np.array_equal(patterns.dist[patterns.ids], want)
            target = np.sqrt(np.sum((offsets * lat.spacing) ** 2, axis=-1))
            assert np.array_equal(patterns.target_dist[patterns.ids],
                                  np.where(mask, target, np.inf))

    @pytest.mark.parametrize("name,m", LIBRARY_CASES)
    def test_library(self, name, m):
        lat, margin = self.LATTICES[name]
        m = self.resolve(m, lat.n_sites)
        lib = build_neighbor_library(lat, margin, m)
        ranked, ids, dist = argsort_library(lat, margin, m)
        assert np.array_equal(ranked_entries(lib), ranked)
        assert_library_rows_are_ranked_rows_sorted(lib, ranked)
        assert np.array_equal(lib.pattern_dist[lib.pattern_ids], dist[ids])
        assert len(lib.pattern_dist) == len(dist)
        if lat.dim == 1:
            # Every 1D set is a run of k consecutive sites: in lattice order, one pattern.
            assert len(lib.pattern_dist) == 1

    def test_128x128_rows_against_the_oracle(self):
        """On 128x128 (margin 9, m = 10) a seeded sample of rows, with the
        enlarged lattice's corners and the sites 1 to m, are the oracles'
        rows. The whole oracle library would take about 2.8 GB."""
        lat, m = grid2d(128), 10
        margin = 9
        lib = build_neighbor_library(lat, margin, m)
        ranked = ranked_entries(lib)
        assert_library_rows_are_ranked_rows_sorted(lib, ranked)
        sets = build_ordered_neighbor_sets(lat, m)
        template = _site_coords(lat.shape)
        entries = _site_coords((128 + 2 * margin,) * 2, -margin)
        rng = np.random.default_rng(128)
        n_lib = len(entries)
        for row in np.r_[0, 145, n_lib - 146, n_lib - 1, rng.choice(n_lib, 300, replace=False)]:
            d2 = ((template - entries[row]) ** 2).sum(axis=1)
            assert ranked[row].tolist() == np.argsort(d2, kind="stable")[:m].tolist()
        for l in np.r_[1:m + 1, rng.choice(np.arange(m + 1, lat.n_sites), 300, replace=False)]:
            d2 = ((template[:l] - template[l]) ** 2).sum(axis=1)
            got = sets[l][sets[l] >= 0]
            assert got.tolist() == np.argsort(d2, kind="stable")[:m].tolist()

    @pytest.mark.parametrize("name,m", [("12x12", "10"), ("anisotropic", "10"),
                                        ("small", "V-1"), ("small_anisotropic", "V-1")])
    def test_rows_that_must_widen(self, monkeypatch, name, m):
        """With a margin far larger than the lattice (40 steps), entries far
        outside it rank, at m = 10, sites whose keys pass the first box's
        bound, so their rows are ranked again in wider boxes; at m = V - 1
        the first box is the whole lattice. Both tables are the oracles'."""
        lat = grid2d(12) if name == "12x12" else self.LATTICES[name][0]
        m = self.resolve(m, lat.n_sites)
        widths = []
        nearest = spatial._nearest
        monkeypatch.setattr(spatial, "_nearest",
                            lambda d2, k: widths.append(d2.shape[1]) or nearest(d2, k))
        lib = build_neighbor_library(lat, 40, m)
        sets = build_ordered_neighbor_sets(lat, m)
        assert (len(set(widths)) > 1) == (m == 10)
        ranked, ids, dist = argsort_library(lat, 40, m)
        assert np.array_equal(ranked_entries(lib), ranked)
        assert_library_rows_are_ranked_rows_sorted(lib, ranked)
        assert np.array_equal(lib.pattern_dist[lib.pattern_ids], dist[ids])
        assert np.array_equal(sets, argsort_predecessors(lat, m))

    @pytest.mark.parametrize("dtype", [int, float])
    def test_pattern_table_groups_rows_as_unique_rows(self, dtype):
        rng = np.random.default_rng(11)
        keys = rng.integers(-2, 3, size=(500, 4)).astype(dtype)
        ids, first = _pattern_table(keys)
        oracle_ids, oracle_first = unique_rows_table(keys)
        assert sorted(first.tolist()) == sorted(oracle_first.tolist())
        # The same partition of the rows, numbered differently.
        assert np.array_equal(oracle_ids[first[ids]], oracle_ids)
        assert np.array_equal(keys[first[ids]], keys)


class TestNeighborLibrary:
    def test_margin_zero_self_nearest(self):
        lat = grid2d(4)
        lib = build_neighbor_library(lat, 0, 3)
        assert lib.neighbor_indices.shape[0] == 16
        ranked = ranked_entries(lib)
        assert_library_rows_are_ranked_rows_sorted(lib, ranked)
        for i in range(16):
            assert ranked[i, 0] == i

    def test_1d_margin_point(self):
        lib = build_neighbor_library(make_lattice_1d(0, 9, 1.0), 2, 2)
        got = lookup_neighbors(np.array([-1.0]), lib)
        assert got.tolist() == [0, 1]

    def test_entry_count_28x28_margin5(self):
        lat = Lattice((28, 28), np.array([1.0, 1.0]), np.zeros(2))
        lib = build_neighbor_library(lat, 5, 10)
        assert lib.neighbor_indices.shape[0] == 38 * 38

    def test_build_memory_is_bounded(self):
        # An (n_lib, V, d) distance tensor alone would take 3364 x 2304 x 2 x 8 B = 124 MB.
        lat = Lattice((48, 48), np.array([1.0, 1.0]), np.zeros(2))
        tracemalloc.start()
        try:
            build_neighbor_library(lat, 5, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_geometry_build_peak_at_128x128(self):
        """`build_geometry` on 128x128 (margin 9, m = 10) peaked at 20.4 MB
        under tracemalloc when each row was ranked against all V sites, in
        blocks of rows, and at 17.7 MB ranked in boxes, with the rows grouped
        by int64 keys. With keys of the least integer type that holds a
        lattice offset it peaks at 10.8 MB (numpy 2.4); the bound keeps the
        old bound's headroom over its peak, 20.4 / 17.7."""
        lat = grid2d(128)
        tracemalloc.start()
        try:
            build_geometry(lat, Hyperparams(m=10), 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12.4e6

    def test_indicator_sets_are_exact_and_margin_free(self):
        """Sets rank integer offsets, ties to the smaller index, whatever the margin."""
        lat = gen_indicator_curves(ScenarioSpec("indicator", n_subjects=1, seed=0))[0][0].lattice
        small, large = build_neighbor_library(lat, 5, 10), build_neighbor_library(lat, 9, 10)
        assert np.array_equal(small.neighbor_indices, large.neighbor_indices[4:-4])
        ranked = ranked_entries(large)
        assert_library_rows_are_ranked_rows_sorted(large, ranked)
        sites = np.arange(lat.n_sites)
        for entry, got in zip(range(-9, lat.n_sites + 9), ranked):
            expect = np.argsort(np.abs(entry - sites), kind="stable")[:10]
            assert got.tolist() == expect.tolist()

    def test_exhaustive_sort_oracle(self):
        lat = make_lattice_1d(0.0, 9.0, 1.0)
        locs = lat.locations()
        lib = build_neighbor_library(lat, 2, 2)
        ranked = ranked_entries(lib)
        for p in (-2.0, -1.0, 0.0, 4.0, 11.0):
            d = np.abs(locs[:, 0] - round(p))
            expect = np.argsort(d, kind="stable")[:2]
            assert ranked[lookup_entries(np.array([p]), lib)].tolist() == expect.tolist()
            assert lookup_neighbors(np.array([p]), lib).tolist() == sorted(expect.tolist())


class TestPatternTable:
    """Library entries are grouped by the bits of their neighbor distance matrix."""

    LATTICES = {
        "glyph": (Lattice((28, 28), np.array([1.0, 1.0]), np.zeros(2)), 9),
        "anisotropic": (Lattice((9, 13), np.array([0.7, 1.3]), np.array([-2.0, 0.5])), 3),
    }

    @pytest.mark.parametrize("name", sorted(LATTICES))
    def test_every_entry_gets_its_own_distance_matrix(self, name):
        lat, margin = self.LATTICES[name]
        lib = build_neighbor_library(lat, margin, 10)
        sites = _site_coords(lat.shape)[lib.neighbor_indices]        # (n_lib, k, d)
        own = _offset_distances(sites, lat.spacing)
        assert np.array_equal(lib.pattern_dist[lib.pattern_ids], own)
        # No two patterns hold the same matrix: every repeat was merged.
        flat = lib.pattern_dist.reshape(len(lib.pattern_dist), -1)
        assert len(np.unique(flat, axis=0)) == len(flat)
        # Swapping the axes of every site keeps each matrix on the square
        # lattice; with unequal spacings it changes every matrix.
        swapped = _offset_distances(sites[..., ::-1], lat.spacing)
        same = np.all(swapped == own, axis=(1, 2))
        assert same.all() if name == "glyph" else not same.any()

    def test_glyph_library_has_93_matrices_from_93_shapes(self):
        """Ranked nearest first, the 2116 sets of the 28x28 library (margin 9,
        m = 10) took 330 shapes, one set taking several as its entries ranked
        its sites in other orders, and mirror images shared a matrix: 88. In
        lattice order a set has one shape, and a mirror image lists its sites
        in another order, so has another matrix: 93 shapes and 93 matrices."""
        lat, margin = self.LATTICES["glyph"]
        lib = build_neighbor_library(lat, margin, 10)
        sites = _site_coords(lat.shape)[lib.neighbor_indices]
        shapes = (sites - sites[:, :1]).reshape(len(sites), -1)
        assert len(np.unique(shapes, axis=0)) == 93
        assert lib.pattern_dist.shape == (93, 10, 10)
        ranked = _site_coords(lat.shape)[ranked_entries(lib)]
        assert len(np.unique((ranked - ranked[:, :1]).reshape(len(ranked), -1), axis=0)) == 330


class TestLookup:
    def setup_method(self):
        self.lat = grid2d(6)
        self.lib = build_neighbor_library(self.lat, 1, 3)

    def test_paper_rounding_example(self):
        # transformed location (2.6, 2.6) resolves to lattice point (3, 3)
        got = lookup_neighbors(np.array([2.6, 2.6]), self.lib)
        expect = lookup_neighbors(np.array([3.0, 3.0]), self.lib)
        assert got.tolist() == expect.tolist()

    def test_lattice_point_own_set(self):
        entry = lookup_entries(np.array([2.0, 4.0]), self.lib)
        flat_idx = 2 * 6 + 4
        assert ranked_entries(self.lib)[entry, 0] == flat_idx
        assert flat_idx in lookup_neighbors(np.array([2.0, 4.0]), self.lib)

    def test_half_up_tie(self):
        got = lookup_neighbors(np.array([2.5, 2.5]), self.lib)
        expect = lookup_neighbors(np.array([3.0, 3.0]), self.lib)
        assert got.tolist() == expect.tolist()

    def test_out_of_bounds(self):
        with pytest.raises(OutOfLibraryBounds):
            lookup_neighbors(np.array([9.0, 2.0]), self.lib)
        with pytest.raises(OutOfLibraryBounds):
            lookup_neighbors(np.array([[2.0, 2.0], [-2.0, 0.0]]), self.lib)

    def test_an_image_that_overflows_is_out_of_bounds(self):
        """Rejected on the floats, with no cast warning first (an error in this suite)."""
        t = AffineTransform.from_parts(np.diag([1e308, 1.0]), np.zeros(2))
        with pytest.raises(OutOfLibraryBounds):
            lookup_entries(affine_apply(t, self.lat.locations()), self.lib)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_points_are_out_of_bounds(self, bad):
        with pytest.raises(OutOfLibraryBounds):
            lookup_entries(np.array([[2.0, 2.0], [bad, 1.0]]), self.lib)

    def test_located_rows_mark_the_points_outside(self):
        """A stack of point rows: each point inside gets `lookup_entries`' entry,
        and each point outside, however far, is marked, with no warning."""
        pts = self.lat.locations()[:4] + 0.3
        rows = np.stack([pts, pts, pts])
        rows[1, 2] = [9.0, 2.0]
        rows[2, 0] = [np.nan, 1.0]
        rows[2, 3] = [1e308, 1e308]
        entries, inside = locate_entries(rows, self.lib)
        assert entries.shape == inside.shape == (3, 4)
        assert inside.tolist() == [[True] * 4, [True, True, False, True],
                                   [False, True, True, False]]
        want = lookup_entries(pts, self.lib)
        assert np.array_equal(entries[inside], np.broadcast_to(want, (3, 4))[inside])

    def test_rounding_error_bound(self):
        # max distance of the returned set exceeds the true m-nearest
        # distance by at most the lattice diagonal (the sqrt(d)/2 rounding
        # error enters twice through the triangle inequality)
        rng = np.random.default_rng(2)
        locs = self.lat.locations()
        bound = np.sqrt(2.0)
        for _ in range(100):
            p = rng.uniform(0.0, 5.0, size=2)
            got = lookup_neighbors(p, self.lib)
            got_max = np.max(np.linalg.norm(locs[got] - p, axis=1))
            true_max = np.sort(np.linalg.norm(locs - p, axis=1))[len(got) - 1]
            assert got_max <= true_max + bound + 1e-12


class TestLibraryWeights:
    """`library_weights` weighs each pattern's rows by one gemm product."""

    def setup_method(self):
        self.lat = Lattice((28, 28), np.array([1.0, 1.0]), np.zeros(2))
        self.lib = build_neighbor_library(self.lat, 9, 10)
        locs = self.lat.locations()
        self.factor = kriging_factor(self.lib, 0.7)
        # Four rotated and shifted copies of the sites: 3136 rows.
        rng = np.random.default_rng(5)
        targets = np.concatenate([
            affine_apply(AffineTransform.from_parts(
                [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]], rng.uniform(-2, 2, 2)), locs)
            for a in rng.uniform(-0.3, 0.3, 4)])
        self.entries = lookup_entries(targets, self.lib)
        self.ids = self.lib.pattern_ids[self.entries]
        self.dist = neighbor_distances(targets, self.lib.neighbor_indices[self.entries], locs)

    def eager_inverses(self):
        """Every library pattern's (R + JITTER I)^-1 at the factor's rho, by one
        np.linalg.inv over all of them."""
        r = np.exp(-self.factor.rho * self.lib.pattern_dist)
        diag = np.arange(r.shape[1])
        r[:, diag, diag] += JITTER
        return np.linalg.inv(r)

    def two_row_products(self, rows, alpha=1.3):
        """(B, F) of each of `rows`, its B its own two-row gemm product against
        the eager inverse of its pattern."""
        inv = self.eager_inverses()[self.ids[rows]]
        r_t = np.exp(-self.factor.rho * self.dist[rows])
        b = np.array([np.matmul(np.stack([r, r]), i.T)[0] for r, i in zip(r_t, inv)])
        f = np.maximum(alpha * (1.0 - np.einsum("qk,qk->q", b, r_t)), VAR_FLOOR * alpha)
        return b, f

    def test_rows_are_their_own_two_row_products_bit_for_bit(self):
        got_b, got_f = library_weights(self.dist, self.ids, self.lib, self.factor, 1.3)
        b, f = self.two_row_products(np.arange(len(self.ids)))
        assert np.array_equal(got_b, b) and np.array_equal(got_f, f)

    def test_every_row_has_the_bits_of_its_own_call(self):
        """Any permutation and any split of the rows into calls, one-row calls
        and one-row groups among them, gives each row the B and F of a call on
        that row alone."""
        rng = np.random.default_rng(9)
        _, lone = np.unique(self.ids, return_index=True)   # one row of every pattern met
        rows = np.concatenate([lone, rng.choice(len(self.ids), 600, replace=False)])
        alone = [library_weights(self.dist[[r]], self.ids[[r]], self.lib, self.factor, 1.3)
                 for r in rows]
        alone_b = np.concatenate([b for b, _ in alone])
        alone_f = np.concatenate([f for _, f in alone])
        # The patterns' lone rows in one call, the rest in another; then a
        # permutation in calls of 1, 2, 37, 1, 259 and 263 rows.
        calls = [*np.split(np.arange(len(rows)), [len(lone)]),
                 *np.split(rng.permutation(len(rows)), [1, 3, 40, 41, 300])]
        singletons = 0
        for part in calls:
            b, f = library_weights(self.dist[rows[part]], self.ids[rows[part]], self.lib,
                                   self.factor, 1.3)
            assert np.array_equal(b, alone_b[part]) and np.array_equal(f, alone_f[part])
            counts = np.unique(self.ids[rows[part]], return_counts=True)[1]
            singletons += np.sum(counts == 1) * (len(part) > 1)
        assert singletons > 1

    def test_peak_memory_holds_no_inverse_per_row(self):
        q, k = self.dist.shape
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            library_weights(self.dist, self.ids, self.lib, self.factor, 1.3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # r_t, B and a few (q,) arrays: 0.6 MB. A gather of one inverse per
        # row alone takes q k^2 8 B = 2.5 MB here.
        assert peak <= 3 * q * k * 8, peak

    def test_calls_allocate_no_chunk(self):
        """A call's peak is its (q, k) arrays, r_t and B, and a few (q,) ones
        (0.58 MB here): no chunk of gathered inverses on top, and no sorted
        copy of the rows."""
        q, k = self.dist.shape
        library_weights(self.dist, self.ids, self.lib, self.factor, 1.3)   # inverts
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            library_weights(self.dist, self.ids, self.lib, self.factor, 1.3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * q * k * 8 + _BLOCK_BYTES // 2, peak

    def test_lazily_filled_inverses_are_the_eager_ones(self):
        """A factor inverts a pattern when a weights call first meets it. After
        three calls over overlapping thirds of the rows, the patterns met, and
        only those, are inverted, each with the bits of the eager inverse of
        all patterns at once, and the calls' (B, F) are the rows' two-row
        products against the eager inverses."""
        eager = self.eager_inverses()
        assert not self.factor.inverted.any()
        for rows in (np.arange(0, 1200), np.arange(1000, 2200), np.arange(2000, len(self.ids))):
            got = library_weights(self.dist[rows], self.ids[rows], self.lib, self.factor, 1.3)
            want = self.two_row_products(rows)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        met = np.unique(self.ids)
        assert np.array_equal(np.flatnonzero(self.factor.inverted), met)
        assert 0 < met.size < len(eager)
        assert np.array_equal(self.factor.inv[met], eager[met])


class TestPredecessorPadding:
    """The template's first m sites have fewer than m predecessors, and their
    rows' padded slots lie at distance inf from every other slot and from
    the site: at any rho > 0 they get B = 0 exactly, and the row's F is the
    F of the same row without the padding."""

    @pytest.mark.parametrize("lattice", [make_lattice_1d(0.0, 29.0, 1.0), grid2d(7)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("rho", [0.05, 0.7, 3.0])
    def test_padded_slots_get_no_weight_and_leave_f_unchanged(self, lattice, rho):
        m, alpha = 10, 1.3
        sets = build_ordered_neighbor_sets(lattice, m)
        patterns = predecessor_patterns(lattice, sets)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            b, f = predecessor_weights(patterns, rho, alpha)
        b, f = b[patterns.ids], f[patterns.ids]
        locs = lattice.locations()
        params = CovarianceParams(alpha, rho)
        for site in range(m):   # site l has l predecessors
            assert np.all(sets[site, site:] < 0)
            assert np.all(b[site, site:] == 0.0)
            want_b, want_f = batched_nngp_weights(locs[site], sets[site:site + 1, :site], locs,
                                                  params)
            assert abs(f[site] - want_f[0]) <= 1e-12 * alpha, site
            assert np.all(np.abs(b[site, :site] - want_b[0]) <= 1e-12), site


class TestNngpWeights:
    def test_empty_neighbors_marginal(self):
        p = CovarianceParams(1.7, 1.0)
        b, f = nngp_weights(np.array([0.5]), np.empty((0, 1)), p)
        assert b.size == 0
        assert f == pytest.approx(1.7)

    def test_single_neighbor_closed_form(self):
        p = CovarianceParams(1.0, 1.3)
        r = 0.8
        b, f = nngp_weights(np.array([r]), np.array([[0.0]]), p)
        assert b[0] == pytest.approx(np.exp(-1.3 * r), rel=1e-8)
        assert f == pytest.approx(1.0 - np.exp(-2 * 1.3 * r), rel=1e-7)

    def test_full_neighborhood_matches_dense_row(self):
        rng = np.random.default_rng(3)
        locs = grid2d(4).locations()
        p = CovarianceParams(1.2, 0.7)
        target = np.array([1.3, 2.2])
        b, f = nngp_weights(target, locs, p)
        pm, s = dense_kriging(locs, target[None, :], p)
        assert np.max(np.abs(b - pm[0])) < 1e-8
        assert f == pytest.approx(s[0, 0], abs=1e-8)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(4)
        locs = grid2d(5).locations()
        p = CovarianceParams(0.9, 1.1)
        targets = locs[:6] + rng.uniform(-0.3, 0.3, size=(6, 2))
        idx = np.argsort(np.linalg.norm(locs[None] - targets[:, None], axis=2),
                         axis=1, kind="stable")[:, :4]
        bb, bf = batched_nngp_weights(targets, idx, locs, p)
        for q in range(6):
            b, f = nngp_weights(targets[q], locs[idx[q]], p)
            assert np.max(np.abs(bb[q] - b)) < 1e-10
            assert bf[q] == pytest.approx(f, rel=1e-10)

    def test_variance_bounds(self):
        rng = np.random.default_rng(5)
        locs = grid2d(5).locations()
        p = CovarianceParams(2.5, 0.6)
        targets = rng.uniform(0, 4, size=(40, 2))
        idx = np.argsort(np.linalg.norm(locs[None] - targets[:, None], axis=2),
                         axis=1, kind="stable")[:, :6]
        _, f = batched_nngp_weights(targets, idx, locs, p)
        assert np.all(f > 0)
        assert np.all(f <= p.alpha + 1e-12)


class TestNngpDensity:
    def test_single_site_standard_normal(self):
        p = CovarianceParams(1.0, 1.0)
        locs = np.array([[0.0]])
        sets = np.full((1, 1), -1)
        got = nngp_log_density(np.array([0.0]), sets, locs, p)
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_full_neighborhood_equals_dense(self):
        rng = np.random.default_rng(6)
        for lat in (make_lattice_1d(0, 24, 1.0), grid2d(6), grid2d(8)):
            locs = lat.locations()
            v = locs.shape[0]
            p = CovarianceParams(1.7, 0.6)
            sets = build_ordered_neighbor_sets(lat, v - 1)
            x = rng.normal(size=v)
            assert abs(nngp_log_density(x, sets, locs, p)
                       - dense_gp_log_density(x, locs, p)) < 1e-8

    def test_alpha_scaling_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        lat = grid2d(5)
        locs = lat.locations()
        sets = build_ordered_neighbor_sets(lat, locs.shape[0] - 1)
        x = rng.normal(size=locs.shape[0])
        for alpha in (0.5, 1.0, 2.0):
            p = CovarianceParams(alpha, 0.9)
            assert abs(nngp_log_density(x, sets, locs, p)
                       - dense_gp_log_density(x, locs, p)) < 1e-8

    def test_kl_gap_nonincreasing_in_m(self):
        # KL(dense || nngp) estimated on 1e4 common dense-GP samples
        rng = np.random.default_rng(8)
        lat = grid2d(12)
        locs = lat.locations()
        v = locs.shape[0]
        p = CovarianceParams(1.0, 0.8)
        sigma = cov_matrix(locs, locs, p)
        sigma[np.diag_indices_from(sigma)] += 1e-10
        chol = np.linalg.cholesky(sigma)
        samples = (chol @ rng.standard_normal((v, 10_000))).T
        dense_ll = dense_gp_log_density(samples, locs, p)
        gaps = []
        for m in (2, 5, 10, 20):
            sets = build_ordered_neighbor_sets(lat, m)
            b, f = batched_nngp_weights(locs, sets, locs, p)
            mask = sets >= 0
            safe = np.where(mask, sets, 0)
            means = np.einsum("qk,sqk->sq", b, samples[:, safe] * mask)
            resid = samples - means
            nngp_ll = -0.5 * np.sum(np.log(2 * np.pi * f) + resid ** 2 / f, axis=1)
            gaps.append(float(np.mean(dense_ll - nngp_ll)))
        assert all(g >= 0 for g in gaps)
        assert all(gaps[i] >= gaps[i + 1] - 1e-9 for i in range(len(gaps) - 1))
