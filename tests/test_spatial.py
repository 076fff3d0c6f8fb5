import tracemalloc

import numpy as np
import pytest

from groupreg.errors import OutOfLibraryBounds
from groupreg.grids import Lattice, make_lattice_1d
from groupreg.spatial import (_BLOCK_BYTES, JITTER, VAR_FLOOR, CovarianceParams,
                              _offset_distances, _site_coords, batched_nngp_weights,
                              build_neighbor_library, build_ordered_neighbor_sets,
                              build_predecessor_patterns, conditional_means, cov_matrix,
                              dense_gp_log_density, dense_kriging, kriging_factor,
                              library_weights, locate_entries, lookup_entries,
                              lookup_neighbors, neighbor_distances, nngp_log_density)
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
        sets = build_ordered_neighbor_sets(grid2d(3).locations(), 4)
        assert np.all(sets[0] == -1)

    def test_fewer_predecessors_than_m(self):
        sets = build_ordered_neighbor_sets(make_lattice_1d(0, 9, 1.0).locations(), 10)
        assert sorted(sets[2][sets[2] >= 0].tolist()) == [0, 1]

    def test_brute_force_oracle_5x5(self):
        locs = grid2d(5).locations()
        sets = build_ordered_neighbor_sets(locs, 3)
        l = 12  # site (2, 2)
        d = np.linalg.norm(locs[:l] - locs[l], axis=1)
        expect = np.argsort(d, kind="stable")[:3]
        assert sets[l].tolist() == expect.tolist()

    def test_all_rows_against_brute_force(self):
        locs = grid2d(4).locations()
        sets = build_ordered_neighbor_sets(locs, 5)
        for l in range(1, 16):
            d = np.linalg.norm(locs[:l] - locs[l], axis=1)
            expect = np.argsort(d, kind="stable")[:min(5, l)]
            got = sets[l][sets[l] >= 0]
            assert got.tolist() == expect.tolist()


class TestNeighborLibrary:
    def test_margin_zero_self_nearest(self):
        lat = grid2d(4)
        lib = build_neighbor_library(lat, 0, 3)
        assert lib.neighbor_indices.shape[0] == 16
        for i in range(16):
            assert lib.neighbor_indices[i, 0] == i

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

    def test_indicator_sets_are_exact_and_margin_free(self):
        """Sets rank integer offsets, ties to the smaller index, whatever the margin."""
        lat = gen_indicator_curves(ScenarioSpec("indicator", n_subjects=1, seed=0))[0][0].lattice
        small, large = build_neighbor_library(lat, 5, 10), build_neighbor_library(lat, 9, 10)
        assert np.array_equal(small.neighbor_indices, large.neighbor_indices[4:-4])
        sites = np.arange(lat.n_sites)
        for entry, got in zip(range(-9, lat.n_sites + 9), large.neighbor_indices):
            expect = np.argsort(np.abs(entry - sites), kind="stable")[:10]
            assert got.tolist() == expect.tolist()

    def test_exhaustive_sort_oracle(self):
        lat = make_lattice_1d(0.0, 9.0, 1.0)
        locs = lat.locations()
        lib = build_neighbor_library(lat, 2, 2)
        for p in (-2.0, -1.0, 0.0, 4.0, 11.0):
            got = lookup_neighbors(np.array([p]), lib)
            d = np.abs(locs[:, 0] - round(p))
            expect = np.argsort(d, kind="stable")[:2]
            assert got.tolist() == expect.tolist()


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
        # Swapping the axes of a shape keeps its matrix on the square lattice,
        # so such shapes share a pattern; with unequal spacings it changes
        # every matrix, so they cannot.
        swapped = _offset_distances(sites[..., ::-1], lat.spacing)
        same = np.all(swapped == own, axis=(1, 2))
        assert same.all() if name == "glyph" else not same.any()

    def test_glyph_library_has_88_matrices_from_330_shapes(self):
        lat, margin = self.LATTICES["glyph"]
        lib = build_neighbor_library(lat, margin, 10)
        sites = _site_coords(lat.shape)[lib.neighbor_indices]
        shapes = (sites - sites[:, :1]).reshape(len(sites), -1)
        assert len(np.unique(shapes, axis=0)) == 330
        assert lib.pattern_dist.shape == (88, 10, 10)


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
        got = lookup_neighbors(np.array([2.0, 4.0]), self.lib)
        flat_idx = 2 * 6 + 4
        assert got[0] == flat_idx

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
    """`library_weights` gathers the rows' inverses in chunks of about _BLOCK_BYTES."""

    def setup_method(self):
        self.lat = Lattice((28, 28), np.array([1.0, 1.0]), np.zeros(2))
        self.lib = build_neighbor_library(self.lat, 9, 10)
        locs = self.lat.locations()
        patterns = build_predecessor_patterns(self.lat, build_ordered_neighbor_sets(locs, 10))
        self.factor = kriging_factor(self.lib, patterns, 0.7)
        # Four rotated and shifted copies of the sites: 3136 rows, ten chunks.
        rng = np.random.default_rng(5)
        targets = np.concatenate([
            affine_apply(AffineTransform.from_parts(
                [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]], rng.uniform(-2, 2, 2)), locs)
            for a in rng.uniform(-0.3, 0.3, 4)])
        self.entries = lookup_entries(targets, self.lib)
        self.dist = neighbor_distances(targets, self.entries, self.lib, locs)

    def test_chunks_give_the_one_shot_gather_bit_for_bit(self):
        r_t = np.exp(-self.factor.rho * self.dist)
        inv = self.factor.library_inv[self.lib.pattern_ids[self.entries]]
        b = np.einsum("qkj,qj->qk", inv, r_t)
        f = np.maximum(1.3 * (1.0 - np.einsum("qk,qk->q", b, r_t)), VAR_FLOOR * 1.3)
        got_b, got_f = library_weights(self.dist, self.entries, self.lib, self.factor, 1.3)
        assert len(self.entries) > 8 * _BLOCK_BYTES // inv[0].nbytes
        assert np.array_equal(got_b, b) and np.array_equal(got_f, f)

    def test_peak_memory_is_one_chunk_not_one_inverse_per_row(self):
        q, k = self.dist.shape
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            library_weights(self.dist, self.entries, self.lib, self.factor, 1.3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # r_t, B and a few (q,) arrays, plus one chunk: 1.3 MB. The one-shot
        # gather alone took q k^2 8 B = 2.5 MB here, and the call 3.1 MB.
        assert peak <= 3 * q * k * 8 + 2 * _BLOCK_BYTES, peak


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
            sets = build_ordered_neighbor_sets(locs, v - 1)
            x = rng.normal(size=v)
            assert abs(nngp_log_density(x, sets, locs, p)
                       - dense_gp_log_density(x, locs, p)) < 1e-8

    def test_alpha_scaling_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        lat = grid2d(5)
        locs = lat.locations()
        sets = build_ordered_neighbor_sets(locs, locs.shape[0] - 1)
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
            sets = build_ordered_neighbor_sets(locs, m)
            b, f = batched_nngp_weights(locs, sets, locs, p)
            mask = sets >= 0
            safe = np.where(mask, sets, 0)
            means = np.einsum("qk,sqk->sq", b, samples[:, safe] * mask)
            resid = samples - means
            nngp_ll = -0.5 * np.sum(np.log(2 * np.pi * f) + resid ** 2 / f, axis=1)
            gaps.append(float(np.mean(dense_ll - nngp_ll)))
        assert all(g >= 0 for g in gaps)
        assert all(gaps[i] >= gaps[i + 1] - 1e-9 for i in range(len(gaps) - 1))
