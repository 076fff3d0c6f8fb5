import copy
import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import least_squares
from scipy.stats import norm

from groupreg import baseline, sampler, spatial
from groupreg.audit import _toy_state, band_to_dense, weights_gap
from groupreg.config import RunConfig
from groupreg.errors import (DegenerateInput, IllConditioned, NonPositiveScale,
                             NoRealLogarithm, OutOfLibraryBounds, SingularTransform)
from groupreg.grids import ActivationMap, Lattice, make_lattice_1d
from groupreg.interp import Warp, interpolate
from groupreg.model import TransformPrior
from groupreg.sampler import (FIT_TOL, AdaptiveProposal, Chain, ChainAborted,
                              beta_sigma_conditional, coarse_grid, fit_affine, fit_transforms,
                              initialize, levenberg_marquardt, lie_mh_step, rho_weights, row_dot,
                              template_conditional, transformed_template_conditional,
                              update_beta_sigma, update_forward_transform,
                              update_reverse_transform, update_template,
                              update_transformed_template)
from groupreg.spatial import (batched_nngp_weights, kriging_factor, library_weights,
                              neighbor_distances, predecessor_weights)
from groupreg.store import save_store
from groupreg.synth import (ScenarioSpec, base_glyph, gen_indicator_curves, generate,
                            indicator_template, rotate_glyph, rotation_about_center)
from groupreg.transforms import (AffineTransform, affine_apply, affine_compose, affine_inverse,
                                 apply_stack, karcher_mean, lie_exp, lie_log, standardize)


def small_glyph():
    """The built-in glyph at half resolution (14x14, spacing 2), three rotations."""
    glyph = base_glyph()
    lattice = Lattice((14, 14), np.array([2.0, 2.0]), np.zeros(2))
    small = ActivationMap(lattice, glyph.grid[::2, ::2].ravel())
    return [rotate_glyph(small, a) for a in (-15.0, 0.0, 15.0)]


def indicator():
    maps, _ = gen_indicator_curves(ScenarioSpec("indicator", n_subjects=3, seed=3))
    return maps


# 1e-12 holds on both lattices only because batched_nngp_weights differences
# the points before squaring: |s|^2 + |t|^2 - 2 s.t distances put its B 1e-12
# off a 40-digit reference on the indicator lattice (|s| up to 5, spacing
# 0.05). A stale factor would be off by more than 1e-4.
CASES = {
    "glyph": (small_glyph, dict(seed=4), 1e-12),
    "indicator": (indicator, dict(seed=5, a0_alpha=0.2, b0_alpha=0.1), 1e-12),
}
# Every case above has the default priors, a_T = a_Tr and b_T = b_Tr, under
# which a step that weighs its proposals by the other direction's prior
# makes the same chain; these cases' priors differ.
PRIOR_CASES = {
    "indicator-distinct-priors": (indicator, dict(CASES["indicator"][1], a_T=1.5, b_T=0.6,
                                                  a_Tr=0.4, b_Tr=1.8), 1e-12),
}
CACHES = ("dist", "entry", "nbr", "B", "F")   # the chain state's NNGP caches


def short_chain(case, sweeps=12):
    make_maps, settings, _ = {**CASES, **PRIOR_CASES}[case]
    cfg = RunConfig(total=sweeps, burn_in=sweeps // 2, thin=1, init_iters=3, **settings)
    return Chain(make_maps(), cfg)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cached_weights_track_alpha_and_rho(case):
    """After every sweep the cached distances equal ones recomputed from T_i,
    and every family of the NNGP table, the template's and each subject's,
    has the neighbor sets and (B, F) of a fresh brute-force solve."""
    chain = short_chain(case)
    tol = CASES[case][2]
    state, geom = chain.state, chain.geom
    for _ in range(chain.config.total):
        chain.sweep()
        assert state.factor.rho == state.rho
        assert_template_rows(state, geom, tol)
        for i, t in enumerate(state.T):
            locs = affine_apply(t, geom.locations)
            assert np.array_equal(state.dist[i], neighbor_distances(
                locs, geom.library.neighbor_indices[state.entry[i]], geom.locations))
            nbr = geom.library.neighbor_indices[state.entry[i]]
            assert np.array_equal(state.nbr[i + 1], nbr)
            oracle = batched_nngp_weights(locs, nbr, geom.locations, state.cov)
            assert weights_gap((state.B[i + 1], state.F[i + 1]), oracle, state.alpha) < tol
    # Both rho outcomes were exercised, so a factor kept after a reject or
    # dropped after an accept would have shown.
    assert 0 < state.rho_accepts < state.rho_proposals


def assert_template_rows(state, geom, tol):
    """Family 0 of the NNGP table is each site given its ordered predecessors,
    the padded slots at the site itself, with a brute-force solve's (B, F)."""
    sets = geom.neighbor_sets
    v, k = state.nbr.shape[1:]
    own = np.arange(v)[:, None]
    assert np.array_equal(state.nbr[0], np.where(sets >= 0, sets, own)[:, :k])
    assert np.all(sets[:, k:] < 0)   # a site has at most V - 1 predecessors
    oracle = batched_nngp_weights(geom.locations, sets[:, :k], geom.locations, state.cov)
    assert weights_gap((state.B[0], state.F[0]), oracle, state.alpha) < tol
    assert np.all(state.B[0][sets[:, :k] < 0] == 0.0)


def test_a_chain_with_more_neighbors_than_sites_runs():
    """m = 10 on a 6-site lattice: every row of the NNGP table is V = 6 wide,
    and the template's rows, all of them padded, are the brute-force
    solve's within the audit's 1e-12 after every sweep."""
    lattice = make_lattice_1d(0.0, 5.0, 1.0)
    rng = np.random.default_rng(8)
    maps = [ActivationMap(lattice, np.sin(lattice.locations()[:, 0] + shift)
                          + 0.05 * rng.standard_normal(6)) for shift in (0.0, 0.2, -0.2)]
    chain = Chain(maps, RunConfig(m=10, total=10, burn_in=5, thin=1, init_iters=3, seed=2))
    state = chain.state
    assert state.nbr.shape == state.B.shape == (4, 6, 6) and state.F.shape == (4, 6)
    for _ in range(chain.config.total):
        chain.sweep()
        assert_template_rows(state, chain.geom, 1e-12)
    assert state.rho_accepts > 0


def run_peak_bytes(maps, kept):
    """tracemalloc peak of `Chain.run` on the indicator case keeping `kept` records."""
    settings = CASES["indicator"][1]
    chain = Chain(maps, RunConfig(total=kept + 2, burn_in=2, thin=1, init_iters=3, **settings))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        chain.run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_run_memory_grows_with_the_store_not_with_the_waic_rows():
    """Per extra kept record, the run's peak grows by the record's store
    fields, not by its 2NV pointwise log-likelihoods: WAIC is accumulated
    row by row. On the indicator case (V = 201, N = 3) a record's store
    payload is 1.9 KB and its log-likelihood row 9.6 KB; the growth measured
    ~2.8 KB per record (~44 KB when every row was kept for a final WAIC)."""
    maps = indicator()
    growth = (run_peak_bytes(maps, 200) - run_peak_bytes(maps, 40)) / 160
    row_bytes = 8 * 2 * maps[0].values.size * len(maps)
    assert growth < row_bytes / 2, (growth, row_bytes)


def glyph_after_two_sweeps():
    chain = short_chain("glyph")
    chain.sweep()
    chain.sweep()
    return chain.state, chain.geom, chain.config


@pytest.mark.parametrize("make_state", [_toy_state, glyph_after_two_sweeps],
                         ids=["toy-1d", "glyph-2d"])
def test_stacked_phases_match_a_loop_over_subjects(make_state):
    """Each stacked phase against a per-subject loop: the X(T_i) draw takes the
    loop's numbers, the subjects' rho weights from the cached distances are
    the loop's from each subject's transformed sites, and the sigma^2,
    beta draws match the loop's up to the rounding of the row sums."""
    state, geom, hp = make_state()
    mean, var = transformed_template_conditional(state)
    ref = np.random.default_rng(3)
    loop = [mean[i] + np.sqrt(var[i]) * ref.standard_normal(mean.shape[1])
            for i in range(len(state.T))]
    assert np.array_equal(update_transformed_template(state, np.random.default_rng(3)), loop)

    factor = kriging_factor(geom.library, 0.7)
    b, f = rho_weights(state, geom, factor)
    for i, t in enumerate(state.T):
        dist = neighbor_distances(affine_apply(t, geom.locations),
                                  geom.library.neighbor_indices[state.entry[i]], geom.locations)
        bi, fi = library_weights(dist, geom.library.pattern_ids[state.entry[i]], geom.library,
                                 factor, state.alpha)
        assert np.array_equal(b[i + 1], bi) and np.array_equal(f[i + 1], fi)

    shape, rate, mu, lam = beta_sigma_conditional(state, hp)
    loop = []
    for i in range(len(state.T)):
        xt, y, ybw, x = state.XT[i], state.Y[i], state.Y_bw[i], state.X
        lam_i = 1.0 / (xt @ xt + x @ x + hp.lambda0)
        mu_i = lam_i * (hp.mu0 * hp.lambda0 + xt @ y + x @ ybw)
        rate_i = hp.a1_sigma + 0.5 * (y @ y + ybw @ ybw + hp.mu0 ** 2 * hp.lambda0
                                      - mu_i * mu_i / lam_i)
        assert np.allclose([lam[i], mu[i], rate[i]], [lam_i, mu_i, rate_i], rtol=1e-12, atol=0)
        loop.append((lam_i, mu_i, rate_i))
    # Every subject's sigma^2 first, then every beta.
    ref = np.random.default_rng(5)
    sigma2 = [1.0 / ref.gamma(shape=shape, scale=1.0 / rate_i) for _, _, rate_i in loop]
    beta = [ref.normal(mu_i, np.sqrt(lam_i * s2)) for (lam_i, mu_i, _), s2 in zip(loop, sigma2)]
    update_beta_sigma(state, hp, np.random.default_rng(5))
    assert np.allclose(np.column_stack([state.sigma2, state.beta]),
                       np.column_stack([sigma2, beta]), rtol=1e-12, atol=0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_same_seed_gives_identical_store(case, tmp_path):
    paths = []
    for run in range(2):
        store, _ = short_chain(case, sweeps=6).run()
        paths.append(tmp_path / f"run{run}.bin")
        save_store(store, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_rho_weights_from_cached_distances_give_the_chain_of_recomputed_ones(
        case, tmp_path, monkeypatch):
    """A chain whose rho step recomputes the distances from each T_i writes the
    same store, byte for byte, as one that reads them from the state."""
    def from_transforms(state, geom, factor):
        n, v, k = state.dist.shape
        lib, pre = geom.library, geom.predecessors
        locs = np.concatenate([affine_apply(t, geom.locations) for t in state.T])
        entries = state.entry.ravel()
        b, f = library_weights(neighbor_distances(locs, lib.neighbor_indices[entries],
                                                  geom.locations),
                               lib.pattern_ids[entries], lib, factor, state.alpha)
        tb, tf = predecessor_weights(pre, factor.rho, state.alpha)
        return (np.concatenate([tb[pre.ids][None], b.reshape(n, v, k)]),
                np.concatenate([tf[pre.ids][None], f.reshape(n, v)]))

    paths = []
    for run in range(2):
        if run:
            monkeypatch.setattr(sampler, "rho_weights", from_transforms)
        store, _ = short_chain(case).run()
        paths.append(tmp_path / f"run{run}.bin")
        save_store(store, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_a_curves_rho_proposal_inverts_one_matrix(monkeypatch):
    """Every 1D library entry's set is a run of k consecutive sites, one
    pattern, so a rho proposal inverts one k x k matrix; the template's 11
    predecessor patterns are solved, not inverted."""
    chain = short_chain("indicator")
    state, geom = chain.state, chain.geom
    shapes, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
    means = spatial.conditional_means(state.X, state.nbr, state.B)
    factor = sampler.rho_target(state, geom, 1.1 * state.rho, means)[2]
    assert shapes == [(1, 10, 10)] and factor.inverted.tolist() == [True]
    assert len(geom.predecessors.dist) == 11


def assert_draws_match(state, geom, q, b, n=20000, seed=11):
    """n block draws of X: mean and covariance against Q^-1 b and Q^-1, both
    in site order."""
    cov = np.linalg.inv(q)
    mean = cov @ b
    rng = np.random.default_rng(seed)
    draws = np.array([update_template(state, geom, rng).copy() for _ in range(n)])
    sd = np.sqrt(np.diag(cov))
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.0 * sd / np.sqrt(n))
    # Standard error of a Gaussian sample covariance entry: sqrt((S_ii S_jj + S_ij^2) / n).
    se = np.sqrt((np.outer(sd * sd, sd * sd) + cov * cov) / n)
    assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) < 4.0 * se)


def test_template_draws_match_block_conditional():
    """20 000 block draws of X: mean and covariance against Q^-1 b and Q^-1."""
    state, geom, _ = _toy_state()
    # Weaken the data and X(T) terms 100-fold. As built, the X(T) values lie
    # between the sites and, the 1D exponential kernel being Markov, leave X
    # nearly independent across sites, where L^-T z and L^-1 z look alike.
    state.sigma2 *= 100.0
    state.F[1:] *= 100.0
    ab, b = template_conditional(state, geom)
    assert_draws_match(state, geom, band_to_dense(ab), b)


def test_template_draws_in_band_order_match_the_conditional_in_site_order():
    """On a 2D lattice of 4 x 10 sites, whose band is narrower in reverse
    Cuthill-McKee order than row-major, the draws of X, site by site, have
    the mean and covariance of the site-order assembly's Q^-1 b and Q^-1."""
    lattice = Lattice((4, 10), np.array([1.0, 1.0]), np.zeros(2))
    locs = lattice.locations()
    maps = [ActivationMap(lattice, np.exp(-0.5 * np.sum((locs - [1.5, c]) ** 2, axis=1) / 4.0))
            for c in (4.0, 4.5, 5.0)]
    chain = Chain(maps, RunConfig(m=4, total=2, burn_in=1, thin=1, init_iters=3, seed=3))
    state, geom = chain.state, chain.geom
    assert not np.array_equal(state.band.pos, np.arange(lattice.n_sites))
    state.sigma2 *= 100.0
    state.F[1:] *= 100.0
    ab, _ = template_conditional(state, geom)
    site_ab, b = chunked_template_conditional(state, geom, np.arange(lattice.n_sites))
    assert ab.shape[0] < site_ab.shape[0]
    assert_draws_match(state, geom, band_to_dense(site_ab), b)


def band_terms(cols, w, finv, n_band):
    """Band slots and values of the upper-triangle pairs of each row's w w^T / F,
    one (slots, values) chunk per p; cols and w are column-first, (k, n)."""
    wf = w * finv
    for p in range(len(cols)):
        ci, cj = cols[p], cols[p:]
        slot = np.minimum(ci, cj)    # j * n_band + d = min * (n_band - 2) + c_p + c_q
        slot *= n_band - 2
        slot += ci
        slot += cj
        yield slot.ravel(), (wf[p] * w[p:]).ravel()


def chunked_template_conditional(state, geom, pos):
    """(ab, b) of `template_conditional` with site l at band position pos[l],
    assembled anew on each call: every row's slots and values recomputed,
    chunk by chunk, then summed by one bincount."""
    v = state.X.size
    own = np.arange(v)[:, None]
    k = state.nbr.shape[-1]
    nsets = geom.neighbor_sets[:, :k]
    nbr, weights = state.nbr[1:].reshape(-1, k), state.B[1:].reshape(-1, k)
    xt_f = (state.XT / state.F[1:]).ravel()
    b = np.bincount(nbr.ravel(), (weights * xt_f[:, None]).ravel(), v)
    b += (state.beta / state.sigma2) @ state.Y_bw
    rows = [(np.hstack([own, np.where(nsets >= 0, nsets, own)]),
             np.hstack([np.ones((v, 1)), -state.B[0]]), 1.0 / state.F[0]),
            (nbr, weights, 1.0 / state.F[1:].ravel())]
    families = [(np.ascontiguousarray(pos[c].T), np.ascontiguousarray(w.T), finv)
                for c, w, finv in rows]
    n_band = 1 + max(int(np.max(c.max(axis=0) - c.min(axis=0))) for c, _, _ in families)
    slots, values = zip(*(t for f in families for t in band_terms(*f, n_band)))
    ab = np.bincount(np.concatenate(slots), np.concatenate(values), n_band * v)
    ab = ab.reshape(v, n_band).T
    ab[0] += np.sum(state.beta ** 2 / state.sigma2)
    return ab, b[np.argsort(pos)]


def assert_template_conditional_is_the_chunked_one(state, geom):
    """A call that sums anew gives the chunked assembly in the band's order,
    bit for bit. One that reuses the kept sum gives it rescaled to the
    state's alpha, bit for bit, and the chunked assembly within 1e-13 of its
    largest entry: F moves with alpha by one rounded product per sweep."""
    band, reused = state.band, state.band.holds(state)
    ab, b = template_conditional(state, geom)
    want_ab, want_b = chunked_template_conditional(state, geom, band.pos)
    assert ab.shape == want_ab.shape and ab.flags.f_contiguous
    assert np.array_equal(b, want_b)
    if reused:
        kept = band.kept * (band.kept_alpha / state.alpha)
        kept[0] += np.sum(state.beta ** 2 / state.sigma2)
        assert np.array_equal(ab, kept)
        assert np.max(np.abs(ab - want_ab)) <= 1e-13 * np.max(np.abs(want_ab))
    else:
        assert np.array_equal(ab, want_ab)
        assert band.kept_alpha == state.alpha
    return ab.shape[0], reused


@pytest.mark.parametrize("case", sorted(CASES))
def test_template_conditional_is_the_chunked_assembly_bit_for_bit(case):
    """The slot tables built once per chain give the (ab, b) of the full
    assembly after every sweep of a chain: bit for bit after a sweep that
    moved rho or a T_i, and rescaled from the kept sum after one that moved
    neither. Both kinds of sweep occur."""
    chain = short_chain(case, sweeps=12)
    outcomes = set()
    for _ in range(chain.config.total):
        chain.sweep()
        outcomes.add(assert_template_conditional_is_the_chunked_one(chain.state, chain.geom)[1])
    assert outcomes == {False, True}


def one_dimensional_states():
    """The 1D chain states the tests build: the toy, every 1D case after two
    sweeps, and a 6-site chain at m = 10, each with its band's k."""
    yield _toy_state()[:2]
    for case in ("indicator", *PRIOR_CASES):
        chain = short_chain(case)
        chain.sweep()
        chain.sweep()
        yield chain.state, chain.geom
    lattice = make_lattice_1d(0.0, 5.0, 1.0)
    maps = [ActivationMap(lattice, np.sin(lattice.locations()[:, 0] + shift))
            for shift in (0.0, 0.2, -0.2)]
    chain = Chain(maps, RunConfig(m=10, total=2, burn_in=1, thin=1, init_iters=3, seed=2))
    yield chain.state, chain.geom


def test_one_dimensional_bands_keep_row_major_order():
    """A 1D row-major band is as narrow as a template row's k + 1 columns
    (all V when V <= k), which no order can beat, so the band keeps it, and
    a call that sums anew is the row-major chunked assembly bit for bit."""
    for state, geom in one_dimensional_states():
        v, k = state.X.size, state.nbr.shape[-1]
        state.band = sampler.TemplateBand(geom, state.entry)
        assert np.array_equal(state.band.pos, np.arange(v))
        height, reused = assert_template_conditional_is_the_chunked_one(state, geom)
        assert height == min(k + 1, v) and not reused


def coupling_height(pos, cols):
    """Band rows an order needs: 1 + the widest span of pos over the rows' columns."""
    return 1 + max(int(np.max(np.ptp(pos[c], axis=1))) for c in cols)


def test_glyph_band_order_is_narrower_than_row_major_and_than_scipys_rcm():
    """On the 28 x 28 glyph's chain state, the band order is not row-major,
    and the rows span fewer band rows than in row-major order or in scipy's
    reverse Cuthill-McKee order of the same coupling graph. Two builds give
    the same order."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    maps, _ = generate(ScenarioSpec("glyph", n_subjects=3, seed=0))
    chain = Chain(maps, RunConfig(total=2, burn_in=1, thin=1, seed=0))
    state, geom = chain.state, chain.geom
    v, k = state.X.size, state.nbr.shape[-1]
    cols = [np.hstack([np.arange(v)[:, None], geom.predecessors.nbr]),
            geom.library.neighbor_indices[state.entry.ravel()]]
    pairs = np.concatenate([np.stack(np.broadcast_arrays(c[:, :, None], c[:, None, :]),
                                     axis=-1).reshape(-1, 2) for c in cols])
    graph = coo_matrix((np.ones(len(pairs)), pairs.T), shape=(v, v)).tocsr()
    at = np.empty(v, dtype=np.intp)
    at[reverse_cuthill_mckee(graph, symmetric_mode=True)] = np.arange(v)
    pos = state.band.pos
    assert not np.array_equal(pos, np.arange(v))
    height = coupling_height(pos, cols)
    assert height < coupling_height(np.arange(v), cols) and height <= coupling_height(at, cols)
    assert np.array_equal(sampler.TemplateBand(geom, state.entry).pos, pos)
    assert template_conditional(state, geom)[0].shape[0] == height


def test_template_conditional_rebuilds_its_slots_when_the_band_height_changes():
    """A row moved onto the library entry whose neighbors span the most band
    rows widens the band past the height its order was built for, so the
    order is built again over the used entries, this one among them; moved
    back, the row leaves the band no taller. Slot tables left at the old
    height would put every pair in the wrong place. The entries are edited
    under a fixed T, so each edit drops the band's kept sum."""
    state, geom, _ = glyph_after_two_sweeps()
    band, lib = state.band, geom.library.neighbor_indices
    band.key = None
    before = assert_template_conditional_is_the_chunked_one(state, geom)[0]
    widest = int(np.argmax(band.entry_span))
    entry = state.entry[0, 5]
    heights = []
    for moved in (widest, entry):
        state.entry[0, 5] = moved
        state.nbr[1, 5] = lib[moved]
        band.key = None
        heights.append(assert_template_conditional_is_the_chunked_one(state, geom)[0])
    template_rows = np.vstack([np.arange(state.X.size), geom.predecessors.nbr.T])
    assert band.used[widest]
    assert np.array_equal(band.pos, sampler.band_order([template_rows, lib[band.used].T],
                                                       geom.lattice))
    assert before < heights[0] and heights[1] <= heights[0]


def test_a_row_moved_onto_an_unseen_edge_entry_builds_the_band_order_again():
    """On the 28x28 glyph's chain state the rows fit a band of 113 rows, and
    library entry 1234, two steps past the lattice's right edge, whose
    neighbors are a strip down that edge, spans 156 in its order. A row moved
    onto it makes the band number the sites again over every entry the chain
    has used, this one among them: the band is then the height `band_order`
    gives over those entries, below 156."""
    maps, _ = generate(ScenarioSpec("glyph", n_subjects=3, seed=0))
    chain = Chain(maps, RunConfig(total=2, burn_in=1, thin=1, seed=0))
    state, geom = chain.state, chain.geom
    band, lib, edge = state.band, geom.library.neighbor_indices, 1234
    assert band.height == 113 and 1 + band.entry_span[edge] == 156 and not band.used[edge]
    state.entry[0, 5] = edge
    state.nbr[1, 5] = lib[edge]
    height = assert_template_conditional_is_the_chunked_one(state, geom)[0]
    used = np.zeros(len(lib), dtype=bool)
    used[state.entry.ravel()] = True
    assert np.array_equal(band.used, used)
    v = state.X.size
    cols = [np.hstack([np.arange(v)[:, None], geom.predecessors.nbr]), lib[used]]
    pos = sampler.band_order([c.T for c in cols], geom.lattice)
    assert np.array_equal(band.pos, pos)
    assert height == band.height == coupling_height(pos, cols) < 156


def test_template_conditional_allocates_little_beyond_its_band():
    """Once the slot tables are built, a call's peak allocation is at most
    twice the band it returns: the pair slots and values live in the chain."""
    state, geom, _ = glyph_after_two_sweeps()
    template_conditional(state, geom)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ab, _ = template_conditional(state, geom)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ab.nbytes, (peak, ab.nbytes)


def test_sampler_and_scipy_share_one_lapack_extension_in_either_import_order():
    """`groupreg.sampler` loads scipy's LAPACK extension itself and registers it
    under its own name, so whichever of it and `scipy.linalg.lapack` is
    imported first, both hold the same routines (perfbench imports groupreg
    first and `scipy.stats`, which imports `scipy.linalg`, later)."""
    env = {**os.environ, "PYTHONPATH": str(Path(sampler.__file__).resolve().parents[1])}
    check = ("import sys, groupreg.sampler as s, scipy.linalg.lapack as l; "
             "print(all(getattr(s, f) is getattr(l, f) for f in ('dpbtrf', 'dpbtrs', 'dtbtrs')), "
             "s._flapack is sys.modules['scipy.linalg._flapack'])")
    for first in ("groupreg.sampler", "scipy.linalg.lapack"):
        out = subprocess.run([sys.executable, "-W", "error", "-c", f"import {first}; {check}"],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.split() == ["True", "True"], first


def test_a_missing_lapack_extension_raises_naming_the_directory(tmp_path):
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        sampler.load_flapack(tmp_path)


def test_non_positive_definite_precision_raises():
    state, geom, _ = _toy_state()
    state.F = -state.F
    with pytest.raises(IllConditioned):
        update_template(state, geom, np.random.default_rng(0))

    chain = short_chain("indicator")
    chain.state.F[0] = -chain.state.F[0]
    with pytest.raises(ChainAborted) as err:
        chain.sweep()
    assert isinstance(err.value.__cause__, IllConditioned)


@pytest.mark.parametrize("bad", [np.nan, 1e200])
def test_beta_sigma_rejects_non_finite_rate(bad):
    """One subject's non-finite rate fails the update before any subject is drawn."""
    state, _, hp = _toy_state()
    state.Y[1, 1] = state.Y_bw[1, 1] = bad
    before = state.beta.copy(), state.sigma2.copy()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonPositiveScale):
        update_beta_sigma(state, hp, np.random.default_rng(0))
    assert np.array_equal(state.beta, before[0]) and np.array_equal(state.sigma2, before[1])


def test_records_are_standardized_and_the_chain_is_not(monkeypatch):
    """From forward transforms right-translated off Karcher mean identity, with
    every forward proposal rejected, one sweep leaves each T_i as it was,
    while its record has forward Karcher mean identity and mean beta 1."""
    maps = indicator()
    cfg = RunConfig(total=1, burn_in=0, thin=1, seed=5, a0_alpha=0.2, b0_alpha=0.1,
                    init_iters=3)
    state = initialize(maps, cfg)
    shift = AffineTransform.from_parts([[1.05]], [0.3])
    state.T = affine_compose(state.T, shift)
    chain = Chain(maps, cfg, initial_state=state)
    before = state.T.copy()
    assert np.linalg.norm(lie_log(karcher_mean(state.T))) > 0.01

    monkeypatch.setattr(sampler, "locate_entries", nothing_inside)
    store, diagnostics = chain.run()
    assert diagnostics["rejected_out_of_library"] == [1, 1, 1]
    assert np.array_equal(chain.state.T, before)
    assert store.n_samples == 1
    for h_fwd, betas in zip(store.H_fwd, store.beta, strict=True):
        mean = karcher_mean(h_fwd)
        assert np.linalg.norm(lie_log(mean)) <= 1e-8
        assert abs(np.mean(betas) - 1.0) <= 1e-12


def negative_betas(state, hp, rng):
    """`update_beta_sigma` with the sign of every beta flipped to negative."""
    update_beta_sigma(state, hp, rng)
    state.beta = -np.abs(state.beta)


def test_a_failure_while_recording_aborts_the_chain(monkeypatch):
    """Mean beta below 0 on the first kept sweep: ChainAborted, with the snapshot."""
    monkeypatch.setattr(sampler, "update_beta_sigma", negative_betas)
    chain = short_chain("indicator", sweeps=4)
    with pytest.raises(ChainAborted, match="recording sweep 2 failed") as err:
        chain.run()
    assert isinstance(err.value.__cause__, NonPositiveScale)
    assert err.value.snapshot["iteration"] == 3
    assert all(beta < 0 for beta in err.value.snapshot["beta"])


def test_chain_needs_at_least_one_map():
    with pytest.raises(DegenerateInput):
        Chain([], RunConfig(total=2, burn_in=1))


def test_set_up_of_an_identically_zero_template_is_degenerate():
    """A cosine map and its negative average to the zero template, so every
    X(T_i) is zero and the scale regression is undefined."""
    lattice = make_lattice_1d(-4.0, 4.0, 0.1)
    cosine = ActivationMap(lattice, np.cos(lattice.locations()[:, 0]))
    maps = [cosine, cosine.with_values(-cosine.values)]
    with pytest.raises(DegenerateInput, match=r"X\(T\) is identically zero"):
        initialize(maps, RunConfig())


@pytest.mark.parametrize("shape", [(5,), (3, 784), (2, 4, 201)])
def test_row_dot_has_the_bits_of_one_dot_per_row(shape):
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    got = row_dot(a, b)
    assert got.shape == shape[:-1]
    for i in np.ndindex(shape[:-1]):
        assert got[i] == float(a[i] @ b[i]) == float(np.dot(a[i], b[i]))


@pytest.mark.parametrize("sim_seed", [0, 2, 3])
def test_library_holds_far_initial_transforms(sim_seed):
    """These cosine fits start 8 to 11 grid steps past the lattice, beyond a 5-step library."""
    maps, _ = generate(ScenarioSpec("cosine", n_subjects=3, seed=sim_seed))
    chain = Chain(maps, RunConfig(total=3, burn_in=1, thin=1, seed=1))
    assert chain.geom.library.margin > 5 + sampler.LIBRARY_SLACK
    store, diagnostics = chain.run()
    assert store.n_samples == 2
    assert diagnostics["library_margin"] == chain.geom.library.margin


def test_a_sweep_builds_no_random_generator(monkeypatch):
    """Both models draw every update from the one generator their __init__ builds."""
    maps = indicator()
    chains = [Chain(maps, RunConfig(total=3, burn_in=1, thin=1, seed=1)),
              baseline.ConventionalChain(maps, RunConfig(model="conventional", total=3,
                                                         burn_in=1, thin=1, seed=1))]

    def no_generator(*args, **kwargs):
        raise AssertionError("a sweep built a random generator")

    for name in ("SeedSequence", "Philox", "PCG64", "Generator", "default_rng"):
        monkeypatch.setattr(np.random, name, no_generator)
    for chain in chains:
        chain.sweep()
        chain.sweep()
        assert chain.iteration == 2


def fit_from_grid(y_map, x_map, beta, start, grid):
    """One subject's set-up fit: the best of `start` and `grid`, refined."""
    return fit_transforms(Warp(x_map), y_map.values[None], np.array([beta]), start[None],
                          grid)[0]


def test_fit_affine_recovers_a_known_warp():
    """Noise-free Y = X(T) with T a rotation and shift: the set-up fit finds T."""
    glyph = base_glyph()
    truth = affine_compose(AffineTransform.translation([1.0, -0.5]),
                           rotation_about_center(glyph.lattice, np.deg2rad(10.0)))
    y = glyph.with_values(interpolate(glyph, affine_apply(truth, glyph.lattice.locations())))
    got = fit_from_grid(y, glyph, 1.0, np.eye(3), coarse_grid(glyph.lattice))
    assert np.linalg.norm(lie_log(got) - lie_log(truth)) < 1e-5


def test_fit_affine_recovers_a_known_warp_1d():
    """Noise-free Y = X(T) with T a scale and shift of an indicator curve."""
    lattice = make_lattice_1d(-5.0, 5.0, 0.05)
    curve = ActivationMap(lattice, indicator_template(lattice.locations()[:, 0]))
    truth = AffineTransform.from_parts([[1.1]], [0.3])
    y = curve.with_values(interpolate(curve, affine_apply(truth, lattice.locations())))
    got = fit_from_grid(y, curve, 1.0, np.eye(2), coarse_grid(lattice))
    assert np.linalg.norm(lie_log(got) - lie_log(truth)) < 1e-5


@pytest.mark.parametrize("x, fun", [
    (np.zeros(6), 0.0),                                    # A = 0: singular
    (np.full(6, np.nan), 0.0),                             # not finite
    (np.array([1.0, 0.0, 0.5, 0.0, 1.0, 0.0]), np.nan),    # valid, objective NaN
], ids=["singular", "non-finite", "nan-objective"])
def test_fit_affine_falls_back_to_the_best_candidate(monkeypatch, x, fun):
    """An LM result that is no valid transform, or whose objective does not
    beat the best candidate's, gives that candidate, without raising; the
    fallback is per subject, so the other subject's fit is its own."""
    glyph = base_glyph()
    start = rotation_about_center(glyph.lattice, np.deg2rad(5.0)).matrix
    warp = Warp(glyph)
    y = np.stack([glyph.values, 1.2 * glyph.values])
    beta = np.array([1.0, 1.0])
    starts = np.array([start, start])
    steps, made = sampler.lm_points, []

    def stub(p, tol):
        made.append(p)
        if len(made) == 1:
            yield p
            return x, fun
        return (yield from steps(p, tol))

    monkeypatch.setattr(sampler, "lm_points", stub)
    got = fit_affine(warp, y, beta, starts)
    monkeypatch.undo()
    assert np.array_equal(got[0], start)
    want = fit_affine(warp, y[1:], beta[1:], starts[1:])[0]
    assert np.array_equal(got[1], want) and not np.array_equal(want, start)


@pytest.mark.parametrize("scenario", ["cosine", "glyph"])
def test_set_up_samples_once_per_lm_round(monkeypatch, scenario):
    """The set-up's LM fits run in lock step: a set-up pass samples the
    template's derivative once per round, in passes of at most `chunk` live
    subjects' points, so its derivative passes are the sum over rounds of the
    live subjects split by `chunk`; with `chunk` >= N, the largest point
    count any subject needs. Each subject's fit is sent beta_i times the
    values at its own point less Y_i, and beta_i times their Jacobian, by
    that pass's template: the one template `Warp` is refilled every pass,
    so each reply is checked against a copy taken when its pass began."""
    maps, _ = generate(ScenarioSpec(scenario, n_subjects=3, seed=1))
    d = maps[0].lattice.dim
    calls = sampled_points(monkeypatch)
    fits, sent = [], []     # per fit_affine call: (warp, its copy, y, beta, points per subject)
    fit, steps = sampler.fit_affine, sampler.lm_points

    def recorded_fit(warp, y, beta, best, tol):
        fits.append((warp, copy.deepcopy(warp), y, beta, []))
        return fit(warp, y, beta, best, tol)

    def counted_steps(p, tol):
        counts = fits[-1][4]
        i = len(counts)
        counts.append(0)
        inner = steps(p, tol)
        q = next(inner)
        while True:
            counts[i] += 1
            reply = yield q
            sent.append((len(fits) - 1, i, q.copy(), reply))
            try:
                q = inner.send(reply)
            except StopIteration as stop:
                return stop.value

    monkeypatch.setattr(sampler, "fit_affine", recorded_fit)
    monkeypatch.setattr(sampler, "lm_points", counted_steps)
    initialize(maps, RunConfig())
    passes = [(w, q) for w, deriv, q in calls if deriv]
    monkeypatch.undo()
    want = 0
    for warp, _, y, _, counts in fits:
        assert len(counts) == len(maps)
        rounds = [sum(c > k for c in counts) for k in range(max(counts))]
        want += sum(-(-live // warp.chunk) for live in rounds)
        if warp.chunk >= len(maps):
            assert sum(-(-live // warp.chunk) for live in rounds) == max(counts)
    assert len(passes) == want < sum(sum(counts) for *_, counts in fits)
    templates = [warp for warp, *_ in fits]
    v = maps[0].lattice.n_sites
    assert all(any(w is t for t in templates) and q <= w.chunk * v for w, q in passes)
    assert len(sent) == sum(sum(counts) for *_, counts in fits)
    for call, i, q, (r, jac) in sent:
        _, template, y, beta, _ = fits[call]
        (vals,), (want_jac,) = template.value_and_jacobian(q.reshape(1, d, d + 1))
        assert np.array_equal(r, beta[i] * vals - y[i])
        assert np.array_equal(jac, beta[i] * want_jac)
        assert jac.strides == want_jac.strides


def candidate_search(monkeypatch, warp, y, beta, starts, grid):
    """The candidates, (N, d + 1, d + 1), that `fit_transforms` hands to
    `fit_affine`, whose refinement is stubbed out for the rest of the test,
    and the (N, 1 + len(grid)) objective table it picked them from."""
    handed, tables, table = [], [], sampler.candidate_objectives

    def handed_on(warp, y, beta, best, tol):
        handed.append(best)
        return best

    def recorded_table(*args):
        tables.append(table(*args))
        return tables[-1]

    monkeypatch.setattr(sampler, "fit_affine", handed_on)
    monkeypatch.setattr(sampler, "candidate_objectives", recorded_table)
    assert fit_transforms(warp, y, beta, starts, grid) is handed[-1]
    return handed[-1], tables[-1]


def test_fit_transforms_takes_the_first_smallest_objective(monkeypatch):
    """Subject by subject, the candidates' objectives are the per-candidate
    sums, bit for bit, in the order [start, *grid], and ties go to the
    earlier candidate."""
    maps = small_glyph()
    lattice = maps[0].lattice
    warp = Warp(maps[1])
    y = np.stack([m.values for m in maps])
    beta = np.array([0.8, 1.0, 1.3])
    grid = coarse_grid(lattice)
    # Subject 1's map is the template and its start the identity, which the
    # grid holds too, with a -0.0 entry: the tie goes to the start.
    starts = np.array([grid[17], np.eye(3), grid[400]])
    best, objs = candidate_search(monkeypatch, warp, y, beta, starts, grid)
    assert best.shape == starts.shape and objs.shape == (3, 1 + len(grid))
    for i in range(3):
        want = []
        for h in [starts[i], *grid]:
            r = y[i] - beta[i] * warp(h)
            want.append(float(r @ r))
        k = int(np.argmin(want))
        assert objs[i].tobytes() == np.array(want).tobytes()
        assert np.array_equal(best[i], ([starts[i], *grid])[k])
    tied = [k for k, h in enumerate(grid) if np.array_equal(h, np.eye(3))]
    assert len(tied) == 1 and grid[tied[0]].tobytes() != starts[1].tobytes()
    assert objs[1, 0] == 0.0 and best[1].tobytes() == starts[1].tobytes()


def test_fit_transforms_candidates_do_not_depend_on_the_pass_size(monkeypatch):
    """The glyph's first-pass search (N = 3, 525 candidates) gives the same
    candidates and objectives at 1 matrix per kernel pass, at the default
    pass and with every candidate in one pass."""
    maps, _ = generate(ScenarioSpec("glyph", n_subjects=3, seed=7))
    lattice = maps[0].lattice
    y = np.stack([m.values for m in maps])
    warp = Warp(ActivationMap(lattice, np.mean(y, axis=0)))
    grid = coarse_grid(lattice)
    assert len(grid) == 525 and 1 < warp.chunk < len(grid)
    starts = np.array([np.eye(3)] * 3)
    beta = np.array([0.9, 1.0, 1.1])
    want_best, want_objs = candidate_search(monkeypatch, warp, y, beta, starts, grid)
    for chunk in (1, len(grid)):
        warp.chunk = chunk
        best, objs = candidate_search(monkeypatch, warp, y, beta, starts, grid)
        assert np.array_equal(objs, want_objs)
        assert np.array_equal(best, want_best)


def noisy_fit_problem(dim):
    """(Y, X, beta) of a warp fit with noise, so the optimum's residual is not 0."""
    rng = np.random.default_rng(11)
    if dim == 2:
        x = base_glyph()
        truth = affine_compose(AffineTransform.translation([0.8, -0.4]),
                               rotation_about_center(x.lattice, np.deg2rad(8.0)))
    else:
        lattice = make_lattice_1d(-5.0, 5.0, 0.05)
        x = ActivationMap(lattice, indicator_template(lattice.locations()[:, 0]))
        truth = AffineTransform.from_parts([[1.08]], [-0.25])
    clean = interpolate(x, affine_apply(truth, x.lattice.locations()))
    y = x.with_values(1.3 * clean + 0.05 * rng.standard_normal(clean.size))
    return y, x, 1.3


def one_problem(point):
    """`levenberg_marquardt`'s `points` for a single problem whose residuals
    and Jacobian at p are `point(p)`."""
    def points(tops, rows):
        assert len(tops) == len(rows) == 1
        return tuple(a[None] for a in point(tops[0]))
    return points


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("start", ["identity", "best-of-grid"])
def test_levenberg_marquardt_matches_minpack(dim, start):
    """On a noisy warp fit, the LM stops within 1e-8 relative of the objective
    MINPACK's lmder (`least_squares(method="lm")`) reaches from the same start
    with FIT_TOL as ftol, xtol and gtol; and, as it stops by the same tests,
    it takes at most 5 points more than lmder evaluates. Its points are the
    scalar loop's, bit for bit."""
    y, x, beta = noisy_fit_problem(dim)
    warp = Warp(x)
    t0 = np.eye(dim + 1)
    if start == "best-of-grid":
        grid = coarse_grid(y.lattice)
        t0 = grid[int(np.argmin([np.sum((y.values - beta * warp(t)) ** 2) for t in grid]))]

    def point(p):
        (vals,), (jac,) = warp.value_and_jacobian(p.reshape(1, dim, dim + 1))
        return beta * vals - y.values, beta * jac

    points, scalar_points = [], []
    (p,), (f,) = levenberg_marquardt(one_problem(lambda q: points.append(q) or point(q)),
                                     t0[:dim].ravel()[None])
    p_scalar, f_scalar = scalar_levenberg_marquardt(
        lambda q: scalar_points.append(q) or point(q), t0[:dim].ravel())
    assert np.array_equal(p, p_scalar) and f == f_scalar
    assert len(points) == len(scalar_points)
    assert all(np.array_equal(a, b) for a, b in zip(points, scalar_points))
    ref = least_squares(lambda q: point(q)[0], t0[:dim].ravel(),
                        jac=lambda q: point(q)[1], method="lm",
                        ftol=FIT_TOL, xtol=FIT_TOL, gtol=FIT_TOL)
    want = float(ref.fun @ ref.fun)
    assert f == float(point(p)[0] @ point(p)[0])
    assert abs(f - want) <= 1e-8 * want
    assert np.max(np.abs(p - ref.x)) < 1e-4
    assert len(points) <= ref.nfev + 5


def test_levenberg_marquardt_stops_at_a_non_finite_start():
    """A start whose residuals are not finite is returned as it is, after one point."""
    calls = []

    def point(p):
        calls.append(p)
        return np.full(3, np.nan), np.full((3, 2), np.nan)

    p0 = np.array([1.0, 2.0])
    (p,), (f,) = levenberg_marquardt(one_problem(point), p0[None])
    assert len(calls) == 1 and np.array_equal(p, p0) and np.isnan(f)


def test_levenberg_marquardt_never_takes_a_non_finite_point():
    """A point whose residuals are NaN is rejected: the step shrinks, and the
    minimum inside the finite region is found."""
    visited = []

    def point(p):
        # r = atan(p - 3): the first Gauss-Newton step from -2 overshoots past 3.5, where r is NaN
        visited.append(p[0])
        if p[0] > 3.5:
            return np.full(1, np.nan), np.full((1, 1), np.nan)
        e = p[0] - 3.0
        return np.array([np.arctan(e)]), np.array([[1.0 / (1.0 + e * e)]])

    (p,), (f,) = levenberg_marquardt(one_problem(point), np.array([[-2.0]]))
    assert any(v > 3.5 for v in visited)
    assert abs(p[0] - 3.0) < 1e-9 and f < 1e-18


def test_levenberg_marquardt_stops_at_the_evaluation_cap():
    """lmder's default cap, 100 (n + 1) points, ends a run no tolerance stops:
    r = |p|^1/2 has its Gauss-Newton step overshoot to -p, and each damped step
    that is taken cuts |p| by a fixed fraction, so no stop test is ever met."""
    calls = []

    def point(p):
        calls.append(p)
        return np.sqrt(np.abs(p)), np.diag(0.5 * np.sign(p) / np.sqrt(np.abs(p)))

    (p,), (f,) = levenberg_marquardt(one_problem(point), np.array([[1.0]]))
    assert len(calls) == 200
    assert 0.0 < f < 1e-30


def test_levenberg_marquardt_gives_each_problem_its_own_run():
    """Problems in lock step, each with its own residual function and stop:
    the evaluation cap (300 points at n = 2), a non-finite start, a rejected
    non-finite point, a smooth optimum, a start whose every step is
    non-finite (so its last point is not its result), and two noisy warp
    fits. Each problem's point, objective and sequence of points have the
    bits of its run alone, and its result those of the scalar loop; a
    problem leaves the rounds when its fit stops, and `points` sees only the
    live rows."""
    y, x, beta = noisy_fit_problem(1)
    warp, m = Warp(x), y.values.size

    def warp_fit(p):
        (vals,), (jac,) = warp.value_and_jacobian(p.reshape(1, 1, 2))
        return beta * vals - y.values, beta * jac

    def padded(point):
        """A scalar problem's residuals and Jacobian, padded with zeros to m
        rows, the Jacobian in the transposed layout of a warp fit's."""
        def padded_point(p):
            r, jac = point(p)
            return np.pad(r, (0, m - 1)), np.pad(jac, ((0, m - 1), (0, 1))).T.copy().T
        return padded_point

    problems = [
        padded(lambda p: (np.sqrt(np.abs(p[:1])),
                          np.diag(0.5 * np.sign(p[:1]) / np.sqrt(np.abs(p[:1]))))),
        lambda p: (np.full(m, np.nan), np.full((2, m), np.nan).T),
        padded(lambda p: ((np.full(1, np.nan), np.full((1, 1), np.nan)) if p[0] > 3.5 else
                          (np.arctan(p[:1] - 3.0), np.array([[1.0 / (1.0 + (p[0] - 3.0) ** 2)]])))),
        padded(lambda p: (np.array([np.sinh(p[0] - 0.5)]), np.array([[np.cosh(p[0] - 0.5)]]))),
        padded(lambda p: ((p[:1], np.ones((1, 1))) if p[0] == 1.0 else
                          (np.full(1, np.nan), np.full((1, 1), np.nan)))),
        warp_fit,
        warp_fit,
    ]
    starts = np.array([[1.0, 0.0], [1.0, 2.0], [-2.0, 0.0], [2.0, 0.0], [1.0, 0.0],
                       [1.0, 0.0], [1.1, 0.3]])
    seen, alone = [[] for _ in problems], []
    for point, seen_i, start in zip(problems, seen, starts):
        alone.append(levenberg_marquardt(one_problem(lambda q: seen_i.append(q) or point(q)),
                                         start[None]))
    rounds = []

    def points(tops, rows):
        rounds.append(list(rows))
        for q, i in zip(tops, rows):
            assert np.array_equal(q, seen[i][sum(i in r for r in rounds) - 1])
        r, jac = zip(*(problems[i](q) for q, i in zip(tops, rows)))
        # Each row keeps the memory layout of its call alone.
        return np.stack(r), np.stack([j.T for j in jac]).swapaxes(1, 2)

    p, f = levenberg_marquardt(points, starts)
    for i, ((p_i,), (f_i,)) in enumerate(alone):
        p_scalar, f_scalar = scalar_levenberg_marquardt(problems[i], starts[i])
        assert np.array_equal(p[i], p_i) and np.array_equal(p_i, p_scalar)
        assert np.array_equal([f[i], f_i], [f_scalar] * 2, equal_nan=True)
        assert sum(i in r for r in rounds) == len(seen[i])
    counts = [len(points_i) for points_i in seen]
    assert len(rounds) == max(counts) == 300 and len(set(counts)) == len(problems)
    assert all(rows == sorted(rows) for rows in rounds)


def linear_problem(columns, residual):
    """The point function of r(p) = columns p + residual, (m,) from a
    Jacobian `columns` (m, n) that does not depend on p."""
    return lambda p: (columns @ p + residual, columns)


@pytest.mark.parametrize("case", ["zero-column", "nan-jacobian", "zero-residual", "xtol"])
def test_lm_stop_tests_on_floats_are_the_array_forms(monkeypatch, case):
    """`lm_points` evaluates gtol and xtol on Python floats; each case gives
    the points and the result of the scalar loop, which keeps numpy's array
    forms, bit for bit. A zero Jacobian column, whose diagonal entry is 0, is
    scaled by 1, and its gtol entry, 0 <= 0, always holds; NaN Jacobian
    entries at a finite start do not meet gtol, so one step is solved; a zero
    residual meets gtol before any step; and a step below FIT_TOL of a large
    p ends a run on xtol, after a solve that no point follows."""
    columns = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
    point, start = {
        "zero-column": (linear_problem(columns, np.array([-1.0, 0.5, 2.0])), [0.3, 4.0]),
        "nan-jacobian": (lambda p: (np.array([p[0] - 1.0, 2.0]), np.array([[1.0], [np.nan]])),
                         [0.5]),
        "zero-residual": (linear_problem(columns, np.zeros(3)), [0.0, -2.0]),
        "xtol": (linear_problem(np.array([[1.0], [0.0]]), np.array([-1e12, 1.0])),
                 [1e12 - 1e4]),
    }[case]
    start = np.array(start)
    events, solve = [], sampler.gesv

    def solved(a, b):
        events.append("solve")
        return solve(a, b)

    def evaluated(p):
        events.append(p)
        return point(p)

    monkeypatch.setattr(sampler, "gesv", solved)
    (p,), (f,) = levenberg_marquardt(one_problem(evaluated), start[None])
    lm_events = events[:]
    events.clear()
    p_scalar, f_scalar = scalar_levenberg_marquardt(evaluated, start)
    monkeypatch.undo()
    assert p.tobytes() == p_scalar.tobytes()
    assert np.float64(f).tobytes() == np.float64(f_scalar).tobytes()
    bits = lambda trail: [e if isinstance(e, str) else e.tobytes() for e in trail]
    assert bits(lm_events) == bits(events)
    kinds = ["solve" if isinstance(e, str) else "point" for e in lm_events]
    if case == "zero-column":
        assert kinds[-1] == "point" and f > 0.0 and p[1] == start[1]
    elif case == "nan-jacobian":
        assert kinds == ["point", "solve"] and np.array_equal(p, start)
    elif case == "zero-residual":
        assert kinds == ["point"] and f == 0.0
    else:
        assert kinds[-1] == "solve" and len(kinds) > 4 and 1.0 < f < 1e4


def coarse_grid_loop(lattice):
    """`coarse_grid` as a loop of validated `AffineTransform`s, one per candidate."""
    lower, upper = lattice.bounds()
    extent = upper - lower
    center = 0.5 * (lower + upper)
    out = []
    if lattice.dim == 1:
        for c in np.linspace(0.8, 1.25, 10):
            for u in np.linspace(-0.25 * extent[0], 0.25 * extent[0], 21):
                a = np.array([[c]])
                out.append(AffineTransform.from_parts(a, np.array([u]) + center - a @ center))
    else:
        for c in (0.9, 1.0, 1.1):
            for th in np.linspace(-np.pi / 6.0, np.pi / 6.0, 7):
                a = c * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
                for u0 in np.linspace(-0.25 * extent[0], 0.25 * extent[0], 5):
                    for u1 in np.linspace(-0.25 * extent[1], 0.25 * extent[1], 5):
                        b = np.array([u0, u1]) + center - a @ center
                        out.append(AffineTransform.from_parts(a, b))
    return np.array(out)


@pytest.mark.parametrize("lattice", [
    base_glyph().lattice,
    make_lattice_1d(-4.0, 4.0, 0.1),
    make_lattice_1d(-5.0, 5.0, 0.05),
    make_lattice_1d(-3.3, 7.1, 0.07),
    Lattice((9, 13), np.array([0.7, 1.3]), np.array([-2.0, 0.5])),
    Lattice((5, 6), np.array([0.3, 0.1]), np.array([5.0, -2.2])),
], ids=["glyph", "cosine", "indicator", "1d_offset", "anisotropic", "2d_offset"])
def test_coarse_grid_is_the_loop_of_transforms_bit_for_bit(lattice):
    grid = coarse_grid(lattice)
    assert grid.shape == (210 if lattice.dim == 1 else 525,) + (lattice.dim + 1,) * 2
    assert np.array_equal(grid, coarse_grid_loop(lattice))


def test_set_up_builds_the_coarse_grid_once(monkeypatch):
    """`initialize` and the baseline's set-up build one coarse grid each and
    hand it, once for all subjects, to the first pass's candidate search,
    `sampler.fit_transforms`."""
    built, handed = [], []
    grid, search = sampler.coarse_grid, sampler.fit_transforms

    def counted_grid(lattice):
        built.append(grid(lattice))
        return built[-1]

    def recorded_search(warp, y, beta, starts, grid, tol=FIT_TOL):
        handed.append((grid, len(y)))
        return search(warp, y, beta, starts, grid, tol)

    monkeypatch.setattr(sampler, "coarse_grid", counted_grid)
    monkeypatch.setattr(sampler, "fit_transforms", recorded_search)
    monkeypatch.setattr(baseline, "coarse_grid", counted_grid)
    monkeypatch.setattr(baseline, "fit_transforms", recorded_search)
    maps = indicator()
    initialize(maps, RunConfig(init_iters=2))
    assert len(built) == 1 and len(handed) == 2
    assert handed[0][0] is built[0] and len(handed[1][0]) == 0
    assert [n for _, n in handed] == [3, 3]
    handed.clear()
    baseline.ConventionalChain(maps, RunConfig(model="conventional", total=3, burn_in=1, thin=1))
    assert len(built) == 2 and len(handed) == 1 and handed[0] == (built[1], 3)


def scalar_levenberg_marquardt(point, p, tol=FIT_TOL):
    """The set-up's Levenberg-Marquardt at tolerance `tol` as a loop over one
    problem, the form `sampler.lm_points` replaced: the oracle of its
    arithmetic, point for point. Its step is the same `sampler.gesv` call,
    which `test_gesv_is_numpys_solve` pins against `np.linalg.solve`."""
    n = p.size
    r, jac = point(p)
    f = float(r @ r)
    scale = None
    mu, nu = 3.0, 2.0
    taken = True
    for _ in range(100 * (n + 1) - 1):
        if taken:
            a, g = jac.T @ jac, jac.T @ r
            diag = np.diag(a)
            if not np.isfinite(f) or np.all(np.abs(g) <= tol * np.sqrt(f * diag)):
                break
            scale = np.where(diag > 0, diag, 1.0) if scale is None else np.maximum(scale, diag)
        h = sampler.gesv(a + mu * np.diag(scale), -g)
        if np.sqrt(scale @ (h * h)) <= tol * np.sqrt(scale @ (p * p)):
            break
        pred = float(h @ (mu * scale * h - g))
        if not pred > 0.0:
            break
        p_new = p + h
        r_new, jac_new = point(p_new)
        f_new = float(r_new @ r_new)
        rho = (f - f_new) / pred
        done = abs(f - f_new) <= tol * f and pred <= tol * f and rho <= 2.0
        taken = rho > 0.0
        if taken:
            p, r, jac, f = p_new, r_new, jac_new, f_new
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        if done:
            break
    return p, f


def per_subject_fit_affine(y_map, x_map, beta, start, grid=(), tol=FIT_TOL):
    """The set-up's transform fit with a `Warp` and a grid search per subject:
    the oracle of `fit_transforms`, with the scalar LM at tolerance `tol`."""
    warp = Warp(x_map)
    y = y_map.values

    def objective(h):
        xt = warp(h)
        r = y - beta * xt
        return float(r @ r)

    candidates = [start, *grid]
    objs = [objective(h) for h in candidates]
    best = candidates[int(np.argmin(objs))]
    d = len(best) - 1

    def point(p):
        (xt,), (jac,) = warp.value_and_jacobian(p.reshape(1, d, d + 1))
        return beta * xt - y, beta * jac

    p, f = scalar_levenberg_marquardt(point, best[:d].ravel(), tol)
    if not f <= min(objs):
        return best
    h = np.eye(d + 1)
    h[:d] = p.reshape(d, d + 1)
    try:
        return AffineTransform(h).matrix
    except SingularTransform:
        return best


def per_subject_initialize(maps, config):
    """`initialize` with every subject's transform fit on its own
    (`per_subject_fit_affine`), and one `Warp` per call: its oracle. Its
    schedule is read from the module's tolerances when it is called: passes
    at `sampler.LOOSE_TOL` until one moves the template by less than
    `sampler.INIT_TOL`, relative, then one pass at FIT_TOL, the last; the
    pass at `init_iters` is at FIT_TOL."""
    lattice = maps[0].lattice
    back = [Warp(amap) for amap in maps]
    x = np.mean([amap.values for amap in maps], axis=0)
    n = len(maps)
    ts = np.array([np.eye(lattice.dim + 1)] * n)
    betas = np.ones(n)
    grid = coarse_grid(lattice)
    settled = False
    for it in range(config.init_iters):
        last = settled or it == config.init_iters - 1
        tol = FIT_TOL if last else sampler.LOOSE_TOL
        x_map = ActivationMap(lattice, x)
        ts = np.array([per_subject_fit_affine(maps[i], x_map, betas[i], ts[i],
                                              grid if it == 0 else (), tol) for i in range(n)])
        warp = Warp(x_map)
        for i in range(n):
            xt = warp(ts[i])
            betas[i] = float(np.dot(xt, maps[i].values)) / float(np.dot(xt, xt))
        ts, _ = standardize(ts)
        betas = betas / np.mean(betas)
        x_new = np.mean([back[i](affine_inverse(ts[i])) / betas[i] for i in range(n)],
                        axis=0)
        rel = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-12)
        x = x_new
        if last:
            break
        settled = rel < sampler.INIT_TOL
    x_map = ActivationMap(lattice, x)
    ts_r = np.array([affine_inverse(t) for t in ts])
    y = np.stack([amap.values for amap in maps])
    warp = Warp(x_map)
    xt = np.stack([warp(t) for t in ts])
    y_bw = np.stack([w(t_r) for w, t_r in zip(back, ts_r)])
    sigma2 = np.maximum(np.mean((y - betas[:, None] * xt) ** 2, axis=1), 1e-12)
    return dict(X=x, T=ts, T_r=ts_r, Y=y, XT=xt, Y_bw=y_bw, beta=betas, sigma2=sigma2,
                alpha=max(float(np.var(x)), 1e-12), init_passes=it + 1,
                init_rel_change=float(rel))


SIMS = [("cosine", 0), ("cosine", 1), ("indicator", 1), ("indicator", 2), ("glyph", 7)]


@pytest.mark.parametrize("scenario, seed", SIMS)
def test_set_up_is_the_per_subject_fit_bit_for_bit(scenario, seed):
    """Sharing each pass's template `Warp` and its grid values across the
    subjects changes no bit of the set-up state, at the default config and
    its tolerance schedule."""
    maps, _ = generate(ScenarioSpec(scenario, n_subjects=3, seed=seed))
    got = initialize(maps, RunConfig())
    for name, want in per_subject_initialize(maps, RunConfig()).items():
        assert np.array_equal(getattr(got, name), want), name


def pass_records(monkeypatch):
    """Record each set-up pass's LM tolerance (every `levenberg_marquardt`
    call) and each pass's new template (every `Warp.refill`)."""
    tols, templates = [], []
    lm, refill = sampler.levenberg_marquardt, Warp.refill

    def recorded_lm(points, starts, tol=FIT_TOL):
        tols.append(tol)
        return lm(points, starts, tol)

    def recorded_refill(self, values):
        templates.append(values.copy())
        return refill(self, values)

    monkeypatch.setattr(sampler, "levenberg_marquardt", recorded_lm)
    monkeypatch.setattr(Warp, "refill", recorded_refill)
    return tols, templates


@pytest.mark.parametrize("scenario, seed", [("glyph", 7), ("indicator", 1)])
def test_set_up_fits_loosely_until_the_template_settles(monkeypatch, scenario, seed):
    """The set-up's passes fit at LOOSE_TOL, INIT_TOL / 100, and its last
    pass, only that one, at FIT_TOL. Glyph sim 7 meets the stop rule: its
    last pass is the one after the first pass that moves the template by
    less than INIT_TOL, relative. Indicator sim 1 does not: its passes all
    move it by more, and the last is the pass at `init_iters`. With one pass
    that pass is at FIT_TOL."""
    maps, _ = generate(ScenarioSpec(scenario, n_subjects=3, seed=seed))
    tols, templates = pass_records(monkeypatch)
    state = initialize(maps, RunConfig())
    assert sampler.LOOSE_TOL == sampler.INIT_TOL / 100 and FIT_TOL < sampler.LOOSE_TOL
    passes = state.init_passes
    assert tols == [sampler.LOOSE_TOL] * (passes - 1) + [FIT_TOL]
    x = [np.mean([m.values for m in maps], axis=0), *templates]
    rel = [np.linalg.norm(b - a) / np.linalg.norm(a) for a, b in zip(x, x[1:])]
    assert len(rel) == passes and rel[-1] == state.init_rel_change
    if scenario == "glyph":
        assert passes < RunConfig().init_iters
        assert min(rel[:-2], default=np.inf) >= sampler.INIT_TOL > rel[-2]
    else:
        assert passes == RunConfig().init_iters and min(rel) >= sampler.INIT_TOL
    tols.clear()
    assert initialize(maps, RunConfig(init_iters=1)).init_passes == 1 and tols == [FIT_TOL]


@pytest.mark.parametrize("scenario, seed", [("indicator", 1), ("glyph", 7)])
def test_set_up_at_one_tolerance_is_the_per_subject_fit_bit_for_bit(monkeypatch, scenario,
                                                                     seed):
    """With LOOSE_TOL set to FIT_TOL every pass fits at FIT_TOL, and the set-up
    is the one-tolerance per-subject loop, bit for bit: the loose passes are
    the schedule's only change to the fits."""
    monkeypatch.setattr(sampler, "LOOSE_TOL", FIT_TOL)
    maps, _ = generate(ScenarioSpec(scenario, n_subjects=3, seed=seed))
    tols, _ = pass_records(monkeypatch)
    got = initialize(maps, RunConfig())
    assert set(tols) == {FIT_TOL}
    for name, want in per_subject_initialize(maps, RunConfig()).items():
        assert np.array_equal(getattr(got, name), want), name


@pytest.mark.parametrize("scenario, seed", SIMS)
def test_loose_passes_move_the_start_less_than_its_last_pass(monkeypatch, scenario, seed):
    """The bound, set before it was measured: the set-up's template differs
    from the one-tolerance set-up's (LOOSE_TOL set to FIT_TOL) by less than
    max(that set-up's `init_rel_change`, 1e-3), relative, in the 2-norm. A
    template that its own last pass still moves by `init_rel_change` is not
    known closer than that. Measured: 1.5e-7 (glyph) to 2.2e-3 (indicator
    sim 2), each below its case's `init_rel_change` (indicator sim 1: 3.6e-4
    against 3.8e-4)."""
    maps, _ = generate(ScenarioSpec(scenario, n_subjects=3, seed=seed))
    got = initialize(maps, RunConfig())
    monkeypatch.setattr(sampler, "LOOSE_TOL", FIT_TOL)
    want = initialize(maps, RunConfig())
    moved = np.linalg.norm(got.X - want.X) / np.linalg.norm(want.X)
    assert moved < max(want.init_rel_change, 1e-3)


@pytest.mark.parametrize("n", [2, 6])
def test_gesv_is_numpys_solve(n):
    """`gesv`, the LM's step, solves 2000 damped systems (J^T J + mu D) h =
    -J^T r, J (40, n) Gaussian, D the diagonal of J^T J and mu over 1e-6 ..
    10, as `np.linalg.solve` does: bit for bit at n = 2, and within 1e-13
    relative, in the 2-norm, at n = 6, where the two LAPACK builds' kernels
    may round the last bit apart (numpy 2.4, scipy 1.17 on x86-64: 285 of
    20 000 systems, by at most 2.4e-16). A singular system raises
    np.linalg.LinAlgError, as `np.linalg.solve` does."""
    rng = np.random.default_rng(n)
    for _ in range(2000):
        jac = rng.standard_normal((40, n))
        a, g = jac.T @ jac, jac.T @ rng.standard_normal(40)
        damped = a + 10.0 ** rng.uniform(-6, 1) * np.diag(a.diagonal())
        got, want = sampler.gesv(damped, -g), np.linalg.solve(damped, -g)
        if n == 2:
            assert got.tobytes() == want.tobytes()
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    with pytest.raises(np.linalg.LinAlgError):
        sampler.gesv(np.zeros((n, n)), np.ones(n))


@pytest.mark.parametrize("scenario, seed", [("cosine", 1), ("glyph", 7)])
def test_baseline_set_up_is_the_per_subject_fit_bit_for_bit(scenario, seed):
    maps, _ = generate(ScenarioSpec(scenario, n_subjects=3, seed=seed))
    chain = baseline.ConventionalChain(
        maps, RunConfig(model="conventional", total=3, burn_in=1, thin=1))
    d = maps[0].lattice.dim
    mean_map = ActivationMap(maps[0].lattice, np.mean([m.values for m in maps], axis=0))
    grid = coarse_grid(maps[0].lattice)
    want = np.array([per_subject_fit_affine(m, mean_map, 1.0, np.eye(d + 1), grid)
                     for m in maps])
    assert np.array_equal(chain.ts, want)


def sampled_points(monkeypatch):
    """Record every `Warp.sample` call as (warp, deriv, query points)."""
    calls = []
    sample = Warp.sample

    def recorded(self, u, deriv=False, offset=None):
        calls.append((self, deriv, u.shape[1]))
        return sample(self, u, deriv, offset)

    monkeypatch.setattr(Warp, "sample", recorded)
    return calls


@pytest.mark.parametrize("model", ["symmetric", "conventional"])
@pytest.mark.parametrize("scenario", ["indicator", "glyph"])
def test_set_up_samples_each_grid_candidate_once(monkeypatch, model, scenario):
    """In the first pass the template's `Warp` samples, without derivative,
    each subject's start and the grid's candidates, V sites each, and (in
    the symmetric model) each subject's fitted T for its scale, and then, in
    the same `Warp`, refilled, each subject's final X(T_i): the grid's sites
    once per set-up, not once per subject. At 525 candidates and N = 3 that
    is 534 V points, where a search per subject samples 3 x 526 V for its
    candidates alone."""
    maps, _ = generate(ScenarioSpec(scenario, n_subjects=3, seed=1))
    lattice = maps[0].lattice
    n_grid, v, n = len(coarse_grid(lattice)), lattice.n_sites, len(maps)
    calls = sampled_points(monkeypatch)
    if model == "symmetric":
        initialize(maps, RunConfig(init_iters=1))
    else:
        baseline.ConventionalChain(maps, RunConfig(model=model, total=3, burn_in=1, thin=1))
    template = calls[0][0]          # the first pass's template: the first warp sampled
    values = sum(q for w, deriv, q in calls if w is template and not deriv)
    assert values == (n_grid + (3 if model == "symmetric" else 1) * n) * v
    assert all(q <= template.chunk * v for w, _, q in calls if w is template)


@pytest.mark.parametrize("scenario", ["indicator", "glyph"])
def test_set_up_rescores_no_start_after_the_first_pass(monkeypatch, scenario):
    """A pass after the first has no grid, so it scores no candidate: its
    template samples, without derivative, only the N V points of its scale
    regression, and the last pass adds the N V of the final X(T_i). The
    keep rule takes each start's objective from the LM's first round."""
    maps, _ = generate(ScenarioSpec(scenario, n_subjects=3, seed=1))
    lattice = maps[0].lattice
    n_grid, v, n = len(coarse_grid(lattice)), lattice.n_sites, len(maps)
    calls = sampled_points(monkeypatch)
    search = sampler.fit_transforms

    def marked_search(warp, y, beta, starts, grid, tol):
        calls.append(None)
        return search(warp, y, beta, starts, grid, tol)

    monkeypatch.setattr(sampler, "fit_transforms", marked_search)
    state = initialize(maps, RunConfig(init_iters=4))
    monkeypatch.undo()
    assert state.init_passes > 2
    template = calls[1][0]
    marks = [k for k, call in enumerate(calls) if call is None] + [len(calls)]
    values = [sum(q for w, deriv, q in calls[lo + 1:hi] if w is template and not deriv)
              for lo, hi in zip(marks, marks[1:])]
    assert values == [(n_grid + 2 * n) * v] + [n * v] * (state.init_passes - 2) + [2 * n * v]
    assert all(w is template or w.n_maps == n for w, _, _ in filter(None, calls))


@pytest.mark.parametrize("search", ["grid-free", "grid"])
def test_keep_rule_compares_with_the_candidates_own_objective(monkeypatch, search):
    """The keep rule compares each refined objective with the handed
    candidate's ||Y_i - beta_i X(T)||^2 from the LM's first round, which has
    the bits of float(r @ r) by `warp` of that candidate alone: after a grid
    search, the smallest of the per-candidate sums. A result whose objective
    is that float is kept, and one a floating step above it is not. With no
    grid, `fit_transforms` warps no start: it samples only the LM's points."""
    maps = small_glyph()
    warp = Warp(maps[1])
    y = np.stack([m.values for m in maps[::2]])
    beta = np.array([0.9, 1.2])
    starts = np.array([rotation_about_center(maps[1].lattice, np.deg2rad(a)).matrix
                       for a in (-12.0, 14.0)])
    grid = coarse_grid(maps[1].lattice)[:0 if search == "grid-free" else None]
    best, want = [], []
    for i in range(2):
        sums = [float(r @ r) for r in (y[i] - beta[i] * warp(h) for h in [starts[i], *grid])]
        best.append([starts[i], *grid][int(np.argmin(sums))])
        want.append(min(sums))
    assert any(not np.array_equal(b, h) for b, h in zip(best, starts)) == (search == "grid")
    moved = np.array(best)
    moved[:, :2, 2] += 0.25
    results = [(moved[0, :2].ravel(), want[0]),
               (moved[1, :2].ravel(), np.nextafter(want[1], np.inf))]
    made = []

    def stub(p, tol):
        k = len(made)
        made.append(p)
        yield p
        return results[k]

    monkeypatch.setattr(sampler, "lm_points", stub)
    calls = sampled_points(monkeypatch)
    got = fit_transforms(warp, y, beta, starts, grid)
    monkeypatch.undo()
    assert len(made) == 2 and all(deriv for _, deriv, _ in calls) == (search == "grid-free")
    assert np.array_equal(got[0], moved[0]) and np.array_equal(got[1], best[1])


def test_chain_keeps_the_set_up_warp_of_the_maps(monkeypatch):
    """`initialize` builds two `Warp`s, the maps' and the template's, and the
    chain's state samples its reverse steps by the maps' one: `refresh_caches`
    builds none."""
    built = []

    class Recorded(Warp):
        def __init__(self, maps):
            super().__init__(maps)
            built.append(self)

    monkeypatch.setattr(sampler, "Warp", Recorded)
    maps = indicator()
    chain = Chain(maps, RunConfig(total=3, burn_in=1, thin=1))
    assert len(built) == 2 and chain.state.warps is built[0] and built[0].n_maps == len(maps)
    sampler.refresh_caches(chain.state, chain.geom)
    assert len(built) == 2 and chain.state.warps is built[0]


@pytest.mark.parametrize("n", [3, 24])
def test_glyph_grid_search_holds_no_stack_of_warped_templates(monkeypatch, n):
    """The first pass's candidate search on the 28x28 glyph (525 candidates),
    once a search has grown the thread's kernel buffers (1.75 MB at 5
    candidates per pass), peaked at 0.56 MB for N = 3 and 0.73 MB for N = 24
    under tracemalloc (numpy 2.4): the other temporaries of one kernel pass,
    and the (N, 526) objective table. One (526, 784) stack of warped values
    alone is 3.3 MB. The bound is 1 MB. The LM refinement is stubbed out."""
    maps, _ = generate(ScenarioSpec("glyph", n_subjects=n, seed=7))
    lattice = maps[0].lattice
    y = np.stack([m.values for m in maps])
    warp = Warp(ActivationMap(lattice, np.mean(y, axis=0)))
    grid = coarse_grid(lattice)
    starts = np.array([np.eye(3)] * n)
    candidate_search(monkeypatch, warp, y, np.ones(n), starts, grid)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        candidate_search(monkeypatch, warp, y, np.ones(n), starts, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1e6 < 526 * lattice.n_sites * 8


def test_set_up_reports_its_passes_and_last_change():
    """The 1D set-up runs every pass without meeting the 1e-4 stop rule; the
    glyph's meets it early. Both are recorded, and a chain reports them."""
    curves, _ = generate(ScenarioSpec("indicator", n_subjects=3, seed=1))
    state = initialize(curves, RunConfig())
    assert state.init_passes == 10 and state.init_rel_change > 1e-4
    glyphs, _ = generate(ScenarioSpec("glyph", n_subjects=3, seed=7))
    state = initialize(glyphs, RunConfig())
    assert state.init_passes < 10 and state.init_rel_change < 1e-4
    _, diag = Chain(curves, RunConfig(total=4, burn_in=2, thin=1, init_iters=2)).run()
    assert diag["init_passes"] == 2 and diag["init_rel_change"] > 1e-4


def test_initialize_is_deterministic():
    maps = small_glyph()
    cfg = RunConfig(seed=4, init_iters=3)
    first, second = (initialize(maps, cfg) for _ in range(2))
    assert np.array_equal(first.X, second.X)
    assert (first.alpha, first.rho) == (second.alpha, second.rho)
    assert np.array_equal(first.T, second.T) and np.array_equal(first.T_r, second.T_r)
    for name in ("Y", "XT", "Y_bw", "beta", "sigma2"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


class _TwoCallWarp:
    """The path `Warp` replaced: a fresh `interpolate` call per transform,
    on the one map, or, for a list of maps, row k of a stack on map k."""

    chunk = 5       # matrices per call of the candidate search; any size gives the same bits

    def __init__(self, maps):
        self.amap = maps if isinstance(maps, ActivationMap) else None
        self.maps = maps
        self.sites = (maps if self.amap is not None else maps[0]).lattice.locations()
        self.dim = self.sites.shape[1]

    def refill(self, values):
        self.amap = self.amap.with_values(values.copy())

    def __call__(self, t):
        if self.amap is None:
            return np.array([interpolate(amap, affine_apply(h, self.sites))
                             for amap, h in zip(self.maps, t, strict=True)])
        if t.ndim == 3:
            return np.array([self(h) for h in t])
        return interpolate(self.amap, affine_apply(t, self.sites))

    def value_and_jacobian(self, tops):
        """The two-call path's values, with the Jacobian of a real one-off
        `Warp`, for an (m, d, d + 1) stack of top rows, one top at a time."""
        vals, jacs = [], []
        for top in tops:
            h = np.eye(top.shape[0] + 1)
            h[:-1] = top
            _, (jac,) = Warp(self.amap).value_and_jacobian(top[None])
            vals.append(interpolate(self.amap, apply_stack(h[None], self.sites)[0]))
            jacs.append(jac.T)
        return np.array(vals), np.array(jacs).swapaxes(1, 2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_initialize_is_unchanged_by_the_prebuilt_warps(monkeypatch, case):
    """Every warp of the set-up through `Warp` gives the bits of the two-call path."""
    make_maps, settings, _ = CASES[case]
    cfg = RunConfig(init_iters=2, **settings)
    maps = make_maps()
    fast = initialize(maps, cfg)
    monkeypatch.setattr(sampler, "Warp", _TwoCallWarp)
    slow = initialize(maps, cfg)
    assert np.array_equal(fast.T, slow.T) and np.array_equal(fast.T_r, slow.T_r)
    for name in ("X", "beta", "sigma2", "XT", "Y_bw"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name))


def assert_step_draws_used(rng, seed, dim, rows=1):
    """The step took one block of every row's delta normals, then one block of
    every row's accept uniform, from its generator, and nothing else."""
    ref = np.random.default_rng(seed)
    ref.standard_normal((rows, dim, 1))
    ref.uniform(size=rows)
    assert rng.uniform() == ref.uniform()


def nothing_inside(points, library):
    """`locate_entries` with every point outside the library."""
    entries, inside = spatial.locate_entries(points, library)
    return entries, np.zeros_like(inside)


def assert_is_factor_of(factor, cov):
    """`factor` is cov's lower Cholesky factor to rounding."""
    want = np.linalg.cholesky(cov)
    assert np.max(np.abs(factor - want)) <= 1e-14 * np.max(np.abs(want))


def record_step(adapt, accepted, deltas):
    """`adapt.record` of a step whose proposals all had a real logarithm and
    stayed in the library."""
    every = np.ones(len(accepted), dtype=bool)
    adapt.record(np.asarray(accepted), deltas, every, every)


def test_frozen_proposal_factor_is_cached_and_exact():
    """Each row's factor is its current covariance's, to rounding, while
    adapting and once frozen; a frozen proposal's factors do not move."""
    adapt = AdaptiveProposal(2, 2)
    rng = np.random.default_rng(0)
    for accepted in [True] * 8 + [False, True, False]:
        factor = adapt.proposal_factor()
        for f, cov in zip(factor, adapt.proposal_cov(), strict=True):
            assert_is_factor_of(f, cov)
        record_step(adapt, [accepted, not accepted], 0.01 * rng.standard_normal((2, 2)))
        moved = adapt.proposal_factor()
        assert not any(np.array_equal(a, b) for a, b in zip(moved, factor))
    adapt.frozen = True
    factor = adapt.proposal_factor()
    record_step(adapt, [True, True], 0.01 * rng.standard_normal((2, 2)))
    assert np.array_equal(adapt.proposal_factor(), factor)
    for f, cov in zip(factor, adapt.proposal_cov(), strict=True):
        assert_is_factor_of(f, cov)


def test_proposal_factor_runs_one_cholesky_per_accepted_delta(monkeypatch):
    """Each row's covariance is factored once at the start and once after
    each of its deltas accepted while adapting, however many proposals are
    made, and never once frozen: the rows factored are counted, not the calls."""
    rows_factored = []
    cholesky = np.linalg.cholesky

    def counted(a):
        rows_factored.append(len(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    adapt = AdaptiveProposal(3, 3)
    rng = np.random.default_rng(1)
    for k in range(30):
        adapt.proposal_factor()
        adapt.proposal_factor()
        record_step(adapt, [k % 3 == 0, k % 5 == 0, False], 0.01 * rng.standard_normal((3, 3)))
    adapt.proposal_factor()
    assert sum(rows_factored) == 3 + 10 + 6
    adapt.frozen = True
    for _ in range(5):
        adapt.proposal_factor()
        record_step(adapt, [True, True, True], 0.01 * rng.standard_normal((3, 3)))
    assert sum(rows_factored) == 3 + 10 + 6


@pytest.mark.parametrize("dim", [2, 6])
def test_stacked_record_is_n_one_row_records(dim):
    """An n-row record and n one-row records, given the same random outcome
    masks and deltas, through adaptation and after the freeze: every field
    and every `proposal_factor()` row agree bit for bit, and each row's
    log lambda, mean and M2 are those of the scalar Robbins-Monro and
    Welford updates, written out here."""
    n = 5
    rng = np.random.default_rng(dim)
    block = AdaptiveProposal(n, dim)
    rows = [AdaptiveProposal(1, dim) for _ in range(n)]
    # per row: log lambda, mean, M2, deltas accepted while adapting
    scalar = [[np.log(1e-4), np.zeros(dim), np.zeros((dim, dim)), 0] for _ in range(n)]
    for step in range(80):
        if step == 50:
            for rec in (block, *rows):
                rec.frozen = True
        real = rng.uniform(size=n) < 0.9
        inside = real & (rng.uniform(size=n) < 0.9)
        accepted = inside & (rng.uniform(size=n) < 0.5)
        deltas = 0.01 * rng.standard_normal((n, dim))
        factors = block.proposal_factor()
        for i, row in enumerate(rows):
            assert np.array_equal(row.proposal_factor()[0], factors[i]), (step, i)
        block.record(accepted, deltas, real, inside)
        for i, row in enumerate(rows):
            row.record(accepted[i:i + 1], deltas[i:i + 1], real[i:i + 1], inside[i:i + 1])
        assert_same_records(block, rows)
        for i, ref in enumerate(scalar):
            if step < 50:
                ref[0] += (step + 1) ** -0.6 * ((1.0 if accepted[i] else 0.0) - 0.234)
                if accepted[i]:
                    ref[3] += 1
                    d = deltas[i] - ref[1]
                    ref[1] += d / ref[3]
                    ref[2] += np.outer(d, deltas[i] - ref[1])
            assert block.log_lambda[i] == ref[0], (step, i)
            assert np.array_equal(block._mean[i], ref[1]) and np.array_equal(block._m2[i], ref[2])
    # Every row left the identity bracket while adapting, and every outcome was seen.
    assert np.all(block.accepts - block.post_accepts >= 5)
    assert np.all(block.post_accepts > 0) and block.post_proposals == 30
    assert block.rejected_nolog.min() > 0 and block.rejected_oob.min() > 0


class CountingGenerator:
    """A `np.random.Generator` that logs every call as (method, shape of its result)."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, np.shape(out)))
            return out
        return counted


def test_each_step_calls_the_generator_once_per_quantity():
    """`lie_mh_step` makes two calls, the n x dim delta normals (shaped
    (n, dim, 1) for the product with the factors) and then the n accept
    uniforms, and `update_beta_sigma` two, every sigma^2 and then every
    beta. A sweep of either model draws in the order its docstring states."""
    chain = short_chain("indicator")
    state, geom, hp = chain.state, chain.geom, chain.config
    (n, v), dim = state.Y.shape, chain.proposals["forward"].dim
    chain.rng = rng = CountingGenerator(0)
    update_forward_transform(state, geom, hp, chain.proposals["forward"], rng)
    assert rng.calls == [("standard_normal", (n, dim, 1)), ("uniform", (n,))]
    rng.calls.clear()
    update_beta_sigma(state, hp, rng)
    assert rng.calls == [("gamma", (n,)), ("normal", (n,))]

    transform_step = [("standard_normal", (n, dim, 1)), ("uniform", (n,))]
    rng.calls.clear()
    chain.sweep()
    assert rng.calls == [("standard_normal", (n, v)), ("standard_normal", (v,)),
                         *transform_step, *transform_step, ("gamma", (n,)), ("normal", (n,)),
                         ("gamma", ()), ("standard_normal", ()), ("uniform", ())]
    conventional = baseline.ConventionalChain(indicator(), RunConfig(model="conventional",
                                                                     total=2, burn_in=1))
    conventional.rng = rng = CountingGenerator(0)
    conventional.sweep()
    assert rng.calls == [("standard_normal", (len(conventional.landmarks),)),
                         ("gamma", (n,)), *transform_step]


def live_proposals(adapt, step):
    """Proposals of a step that reach its target's log_new: those with a real
    logarithm inside the neighbor library, counted from `adapt`'s records."""
    rejected = adapt.rejected_nolog + adapt.rejected_oob
    step()
    return len(rejected) - int(np.sum(adapt.rejected_nolog + adapt.rejected_oob - rejected))


def test_each_transform_step_evaluates_its_transform_terms_in_one_stacked_call(monkeypatch):
    """A forward, a reverse and a baseline T step each evaluate the terms of the
    transforms alone in one call, over their N current transforms stacked
    over the live proposals: `transform_terms` in the symmetric steps, the
    prior's `log_density` in the baseline's. At N = 3 a second
    `transform_terms` call, current transforms and proposals apart, costs
    ~40 us a step on a 2-core x86-64 machine (44 us for one call of 6 rows,
    85 us for two of 3)."""
    rows = []
    terms, log_density = sampler.transform_terms, TransformPrior.log_density
    monkeypatch.setattr(sampler, "transform_terms",
                        lambda prior, h, other: rows.append(len(h)) or terms(prior, h, other))
    chain = short_chain("indicator")
    state, geom, hp, rng = chain.state, chain.geom, chain.config, chain.rng
    n = len(state.T)
    for direction, update in (("forward", update_forward_transform),
                              ("reverse", update_reverse_transform)):
        adapt = chain.proposals[direction]
        rows.clear()
        live = live_proposals(adapt, lambda: update(state, geom, hp, adapt, rng))
        assert live > 0 and rows == [n + live], direction

    monkeypatch.setattr(TransformPrior, "log_density",
                        lambda prior, h: rows.append(len(h)) or log_density(prior, h))
    conventional = baseline.ConventionalChain(indicator(), RunConfig(model="conventional",
                                                                     total=2, burn_in=1))
    rows.clear()
    live = live_proposals(conventional.proposals["forward"], conventional.sweep)
    assert live > 0 and rows == [n + live]


def test_lie_mh_step_rejects_out_of_library_proposals():
    def out_of_library(rows, proposals):
        assert rows.tolist() == [0, 1] and len(proposals) == 2
        return np.zeros(rows.size, dtype=bool), np.zeros(2), np.empty(0), (np.empty((0, 4)),)

    h = np.array([AffineTransform.rotation(0.3), AffineTransform.rotation(-0.2)])
    payload = np.ones((2, 4))
    before = h.copy()
    adapt = AdaptiveProposal(len(h), 6)
    rng = np.random.default_rng(0)
    accepted = lie_mh_step((h, payload), out_of_library, adapt, rng)
    assert accepted.tolist() == [False, False]
    assert (adapt.rejected_oob.tolist(), adapt.rejected_nolog.tolist()) == ([1, 1], [0, 0])
    assert (adapt.proposals, adapt.accepts.tolist()) == (1, [0, 0])
    assert np.array_equal(h, before) and np.all(payload == 1.0)
    assert_step_draws_used(rng, 0, 6, rows=2)


def test_lie_mh_step_rejects_proposals_without_a_real_logarithm():
    """With lambda = 1 (1e4 times the initial scale), seed 3 proposes a
    transform with no real logarithm; the target is never evaluated."""
    def never(rows, proposals):
        raise AssertionError("log target evaluated for a rejected proposal")

    h = AffineTransform.rotation(2.5).matrix[None].copy()
    before = h.copy()
    adapt = AdaptiveProposal(1, 6)
    adapt.log_lambda[:] = 0.0
    rng = np.random.default_rng(3)
    accepted = lie_mh_step((h,), never, adapt, rng)
    assert accepted.tolist() == [False]
    assert (adapt.rejected_nolog.tolist(), adapt.rejected_oob.tolist()) == ([1], [0])
    assert (adapt.proposals, adapt.accepts.tolist()) == (1, [0])
    assert np.array_equal(h, before)
    assert_step_draws_used(rng, 3, 6)


# 1D stationarity toy: pi(a, b) = N(a; 1, 0.3^2) on (0.3, 3) times N(b; b_mean, 1),
# a density in the entries (a, b) of T(s) = a s + b, as the model's targets are.
# Row r of a run has b_mean = B_MEANS[r], so rows given each other's accept
# decisions or targets would sample the wrong b.
A_MEAN, A_SD, A_LO, A_HI, B_SD = 1.0, 0.3, 0.3, 3.0, 1.0
B_MEANS = (0.5, -1.5)
# Allowed |mean - truth| in batch-means Monte-Carlo standard errors.
STATIONARITY_Z = 5.0


def toy_log_target(h, b_mean):
    """The toy log density of each (a, b) of a (n, 2, 2) stack, (n,); b_mean (n,)."""
    a, b = h[:, 0, 0], h[:, 0, 1]
    inside = (A_LO < a) & (a < A_HI)
    value = -0.5 * ((a - A_MEAN) / A_SD) ** 2 - 0.5 * ((b - b_mean) / B_SD) ** 2
    return np.where(inside, value, -np.inf)


def stationarity_z_scores(n_steps=20000, n_batches=50, seed=0, n_rows=1):
    """(mean - truth) / batch-means MCSE of E[a], Var[a], E[b], Var[b] of each
    row, over a lie_mh_step chain of n_rows independent rows with the fixed
    proposal covariance 0.15 I. Returns one dict per row."""
    b_means = np.array(B_MEANS[:n_rows])
    adapt = AdaptiveProposal(n_rows, 2)
    adapt.log_lambda[:] = np.log(0.15)
    adapt.frozen = True
    rng = np.random.default_rng(seed)
    h = np.array([[[A_MEAN, b], [0.0, 1.0]] for b in b_means])

    def target(rows, proposals):
        return (np.ones(rows.size, dtype=bool), toy_log_target(h, b_means),
                toy_log_target(proposals, b_means[rows]), ())

    draws = np.empty((n_steps, n_rows, 2))
    for k in range(n_steps):
        lie_mh_step((h,), target, adapt, rng)
        draws[k] = h[:, 0]

    density = lambda a: norm.pdf(a, A_MEAN, A_SD)
    mass = quad(density, A_LO, A_HI)[0]
    mean_a = quad(lambda a: a * density(a), A_LO, A_HI)[0] / mass
    var_a = quad(lambda a: (a - mean_a) ** 2 * density(a), A_LO, A_HI)[0] / mass
    scores = []
    for (a, b), b_mean in zip(draws.transpose(1, 2, 0), b_means):
        stats = {"E[a]": (a, mean_a), "Var[a]": ((a - mean_a) ** 2, var_a),
                 "E[b]": (b, b_mean), "Var[b]": ((b - b_mean) ** 2, B_SD ** 2)}
        z = {}
        for name, (values, truth) in stats.items():
            batch_means = values.reshape(n_batches, -1).mean(axis=1)
            mcse = batch_means.std(ddof=1) / np.sqrt(n_batches)
            z[name] = (values.mean() - truth) / mcse
        scores.append(z)
    return scores


def test_lie_mh_step_samples_its_target():
    """Mean and variance of a and b match quadrature within STATIONARITY_Z MCSEs."""
    z, = stationarity_z_scores()
    assert all(abs(v) < STATIONARITY_Z for v in z.values()), z


def test_lie_mh_step_samples_independent_rows_each_from_its_own_target():
    """Two rows with different targets in one step: each row's marginal is
    its own target's, so the accept mask couples no rows."""
    scores = stationarity_z_scores(n_rows=2, seed=1)
    assert all(abs(v) < STATIONARITY_Z for z in scores for v in z.values()), scores


def test_stationarity_test_sees_the_tr_l_hastings_factor(monkeypatch):
    """With the factor on tr L set to 1 instead of d + 1 = 2, the chain samples
    pi(a, b) / a, whose E[a] is ~0.095 below the target's, and the test fails."""
    monkeypatch.setattr(sampler, "lie_mh_log_acceptance",
                        lambda log_old, log_new, delta:
                        np.minimum(0.0, log_new - log_old + delta[:, 0]))
    z, = stationarity_z_scores()
    assert z["E[a]"] < -STATIONARITY_Z, z


def test_rejected_forward_update_leaves_the_subject_unchanged(monkeypatch):
    state, geom, hp = _toy_state()
    h = state.T.copy()
    kept = [getattr(state, name).copy() for name in CACHES]
    monkeypatch.setattr(sampler, "locate_entries", nothing_inside)
    adapt = AdaptiveProposal(len(h), 2)
    accepted = update_forward_transform(state, geom, hp, adapt, np.random.default_rng(0))
    assert accepted.tolist() == [False, False]
    assert (adapt.rejected_oob.tolist(), adapt.proposals) == ([1, 1], 1)
    assert np.array_equal(state.T, h)
    assert all(np.array_equal(getattr(state, name), a) for name, a in zip(CACHES, kept))


def test_forward_proposal_whose_image_overflows_is_rejected_out_of_library(monkeypatch):
    """T(S) with infinite and huge coordinates: the library lookup marks it
    outside, without a cast warning (an error under the suite's
    filterwarnings), so the step counts the proposal in rejected_oob."""
    state, geom, hp = _toy_state()
    h = state.T.copy()
    kept = [getattr(state, name).copy() for name in CACHES]
    monkeypatch.setattr(sampler, "lie_exp", lambda delta: np.array([[1e308, 0.0], [0.0, 1.0]]))
    adapt = AdaptiveProposal(len(h), 2)
    accepted = update_forward_transform(state, geom, hp, adapt, np.random.default_rng(0))
    assert accepted.tolist() == [False, False]
    assert (adapt.rejected_oob.tolist(), adapt.rejected_nolog.tolist(),
            adapt.proposals) == ([1, 1], [0, 0], 1)
    assert np.array_equal(state.T, h)
    assert all(np.array_equal(getattr(state, name), a) for name, a in zip(CACHES, kept))


# The per-subject loop that one batched step per direction replaced: the
# oracle the batched steps must match bit for bit. Each subject's target is
# the stacked one on a stack of one, its current transforms' terms computed
# from them by a `transform_terms` call of their own, apart from the
# proposal's, and its reverse proposals sampled by a one-map `Warp` of its
# own map; it writes an accepted proposal's caches to the state. Each
# subject has its own one-row `AdaptiveProposal`, the scalar reference of
# its row of the block. The loop is fed the block's draws (`block_draws`).

def block_draws(recs, rng):
    """One `lie_mh_step`'s draws for the one-row records `recs`: every delta
    from one block of normals, by the step's own expression over the
    records' stacked factors, then every log accept uniform from one block."""
    factors = np.concatenate([adapt.proposal_factor() for adapt in recs])
    deltas = (factors @ rng.standard_normal((len(recs), recs[0].dim, 1)))[..., 0]
    return deltas, np.log(rng.uniform(size=len(recs)))


def loop_lie_mh_step(h, log_old, log_target, adapt, delta, accept_draw):
    """One scalar Lie-MH step of the homogeneous matrix h by the given delta
    and log accept uniform, counted in the one-row proposal `adapt`;
    (h_new, payload) on accept, None otherwise."""
    h_new = sampler.lie_exp(delta) @ h

    def count(accepted, real=True, inside=True):
        adapt.record(np.array([accepted]), delta[None], np.array([real]), np.array([inside]))

    try:
        lie_log(h_new)
    except NoRealLogarithm:
        count(False, real=False, inside=False)
        return None
    try:
        log_new, payload = log_target(h_new)
    except OutOfLibraryBounds:
        count(False, inside=False)
        return None
    if delta.size == 2:
        log_accept = min(0.0, log_new - log_old + 2.0 * float(delta[0]))
    else:
        log_accept = min(0.0, log_new - log_old + 3.0 * float(delta[0] + delta[4]))
    accepted = accept_draw < log_accept
    count(accepted)
    return (h_new, payload) if accepted else None


def loop_forward_transform(i, state, geom, hp, adapt, delta, accept_draw):
    h_r, xt = state.T_r[i:i + 1], state.XT[i:i + 1]

    def target(t):
        h = t[None]
        inside, caches = sampler.subject_geometry(h, geom, state.factor, state.alpha)
        if not inside[0]:
            raise OutOfLibraryBounds("test: proposal left the library")
        terms = sampler.transform_terms(geom.prior_T, h, h_r)
        return sampler.forward_log_target(terms, state.X, xt, caches[2:], hp)[0], caches

    row = slice(i + 1, i + 2)   # subject i's family of the NNGP table
    log_old = sampler.forward_log_target(
        sampler.transform_terms(geom.prior_T, state.T[i:i + 1], h_r), state.X, xt,
        (state.nbr[row], state.B[row], state.F[row]), hp)[0]
    step = loop_lie_mh_step(state.T[i], log_old, target, adapt, delta, accept_draw)
    if step is not None:
        state.T[i], payload = step
        (state.dist[i], state.entry[i], state.nbr[i + 1], state.B[i + 1],
         state.F[i + 1]) = (value[0] for value in payload)


def loop_reverse_transform(i, state, geom, hp, adapt, delta, accept_draw):
    h, beta, sigma2 = state.T[i:i + 1], state.beta[i:i + 1], state.sigma2[i:i + 1]
    warp = Warp(state.maps[i])

    def target(t_r):
        y_bw = warp(t_r)[None]
        terms = sampler.transform_terms(geom.prior_Tr, t_r[None], h)
        return sampler.reverse_log_target(terms, state.X, y_bw, beta, sigma2, hp)[0], y_bw

    log_old = sampler.reverse_log_target(
        sampler.transform_terms(geom.prior_Tr, state.T_r[i:i + 1], h), state.X,
        state.Y_bw[i:i + 1], beta, sigma2, hp)[0]
    step = loop_lie_mh_step(state.T_r[i], log_old, target, adapt, delta, accept_draw)
    if step is not None:
        state.T_r[i], y_bw = step
        state.Y_bw[i] = y_bw[0]


def loop_transform_step(loop_step, recs, state, geom, hp, rng):
    """One direction's step as a loop over subjects, fed the block's draws."""
    deltas, accept_draws = block_draws(recs, rng)
    for i, adapt in enumerate(recs):
        loop_step(i, state, geom, hp, adapt, deltas[i], accept_draws[i])


def loop_updates(chain):
    """`Chain.updates` with the transform steps looped over subjects, each
    counted in its own one-row record of `chain.rows`, frozen with its block."""
    state, geom, hp, rng = chain.state, chain.geom, chain.config, chain.rng
    for direction, recs in chain.rows.items():
        for rec in recs:
            rec.frozen = chain.proposals[direction].frozen
    update_transformed_template(state, rng)
    update_template(state, geom, rng)
    loop_transform_step(loop_forward_transform, chain.rows["forward"], state, geom, hp, rng)
    loop_transform_step(loop_reverse_transform, chain.rows["reverse"], state, geom, hp, rng)
    update_beta_sigma(state, hp, rng)
    means = sampler.update_alpha(state, hp, rng)
    sampler.update_rho(state, geom, hp, rng, means)


def looped_chain(case, sweeps=12):
    """`short_chain` whose sweeps run `loop_updates`, with `chain.rows`:
    one `AdaptiveProposal(1, dim)` per subject and direction."""
    chain = short_chain(case, sweeps)
    chain.rows = {direction: [AdaptiveProposal(1, rec.dim) for _ in rec.accepts]
                  for direction, rec in chain.proposals.items()}
    chain.updates = lambda: loop_updates(chain)
    return chain


STATE_FIELDS = ("T", "T_r", "X", "XT", "Y_bw", "beta", "sigma2", "alpha", "rho", *CACHES)
BLOCK_FIELDS = ("dim", "frozen", "proposals", "post_proposals")
ROW_FIELDS = ("log_lambda", "_mean", "_m2", "_base_factor", "stale", "accepts", "post_accepts",
              "rejected_oob", "rejected_nolog")


def assert_same_records(block, rows):
    """Row i of the n-row record `block` is the one-row record rows[i], bit for bit."""
    assert len(rows) == len(block.accepts)
    for i, row in enumerate(rows):
        for name in BLOCK_FIELDS:
            assert getattr(block, name) == getattr(row, name), (i, name)
        for name in ROW_FIELDS:
            assert np.array_equal(getattr(block, name)[i], getattr(row, name)[0]), (i, name)


def assert_same_chains(batched, looped):
    for name in STATE_FIELDS:
        assert np.array_equal(getattr(batched.state, name), getattr(looped.state, name)), name
    assert batched.proposals.keys() == looped.rows.keys()
    for direction, block in batched.proposals.items():
        assert_same_records(block, looped.rows[direction])
    assert batched.rng.bit_generator.state == looped.rng.bit_generator.state


@pytest.mark.parametrize("case", sorted(CASES) + sorted(PRIOR_CASES))
def test_batched_transform_steps_match_the_loop_over_subjects(case):
    """Through burn-in and after it, sweeps with one batched step per direction
    leave the state, the proposals and the generator as the loop does, bit
    for bit, with both outcomes of both steps seen."""
    # 24 sweeps: on the indicator case no forward move is accepted in the first 16.
    batched, looped = short_chain(case, sweeps=24), looped_chain(case, sweeps=24)
    for _ in range(batched.config.total):
        batched.sweep()
        looped.sweep()
        assert_same_chains(batched, looped)
    for rec in batched.proposals.values():
        assert 0 < rec.accepts.sum() < rec.proposals * rec.accepts.size


def assert_transform_stacks(n, d, *stacks):
    for h in stacks:
        assert type(h) is np.ndarray and h.dtype == np.float64 and h.shape == (n, d + 1, d + 1)


@pytest.mark.parametrize("case", sorted(CASES))
def test_both_models_hold_their_transforms_as_matrix_stacks(case):
    """After set-up, after sweeps, and in a chain started from a copy of one
    set-up as waic-scan starts each of its chains, the transforms are
    (N, d + 1, d + 1) float arrays; the chain leaves the set-up it was
    copied from as it was."""
    make_maps, settings, _ = CASES[case]
    maps = make_maps()
    cfg = RunConfig(total=4, burn_in=2, thin=1, init_iters=2, **settings)
    n, d = len(maps), maps[0].lattice.dim
    initial = initialize(maps, cfg)
    assert_transform_stacks(n, d, initial.T, initial.T_r)
    kept = initial.T.copy(), initial.T_r.copy()
    chains = [Chain(maps, dataclasses.replace(cfg, lambda_r=lam),
                    initial_state=copy.deepcopy(initial)) for lam in (0.5, 2.0)]
    for chain in chains:
        assert_transform_stacks(n, d, chain.state.T, chain.state.T_r)
        chain.run()
        assert_transform_stacks(n, d, chain.state.T, chain.state.T_r)
    assert np.array_equal(initial.T, kept[0]) and np.array_equal(initial.T_r, kept[1])
    moved = chains[0].state
    assert not (np.array_equal(moved.T, kept[0]) and np.array_equal(moved.T_r, kept[1]))

    conventional = baseline.ConventionalChain(maps, RunConfig(model="conventional", total=4,
                                                              burn_in=2, thin=1, seed=1))
    assert_transform_stacks(n, d, conventional.ts)
    conventional.run()
    assert_transform_stacks(n, d, conventional.ts)
    # Each record holds its own copy of the transforms, not the chain's stack:
    # a record taken before the stack changes in place is left as it was.
    for chain, stacks in ((chains[0], (moved.T, moved.T_r)), (conventional, (conventional.ts,))):
        first = chain.record()[0]
        kept = copy.deepcopy(first)
        for h in stacks:
            h[0, :d, d] += 0.01
        second = chain.record()[0]
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(first, kept, strict=True))
        assert not np.array_equal(second[1], first[1])


def test_a_subject_moves_while_the_others_are_rejected(monkeypatch):
    """In one forward step subject 0 proposes a transform with no real
    logarithm and subject 1 one that leaves the library; subject 2 still
    moves, and the step leaves what the loop leaves."""
    def first_two_fail():
        calls = iter(range(3))

        def patched(delta):
            k = next(calls)
            if k == 0:
                return np.array([[-1.0, 0.0], [0.0, 1.0]])
            if k == 1:
                return np.array([[1e308, 0.0], [0.0, 1.0]])
            return lie_exp(delta)

        monkeypatch.setattr(sampler, "lie_exp", patched)

    batched, looped = short_chain("indicator"), looped_chain("indicator")
    # a step so small that it is accepted
    batched.proposals["forward"].log_lambda[:] = np.log(1e-12)
    for adapt in looped.rows["forward"]:
        adapt.log_lambda[:] = np.log(1e-12)
    first_two_fail()
    accepted = update_forward_transform(batched.state, batched.geom, batched.config,
                                        batched.proposals["forward"], batched.rng)
    first_two_fail()
    loop_transform_step(loop_forward_transform, looped.rows["forward"], looped.state,
                        looped.geom, looped.config, looped.rng)
    assert accepted.tolist() == [False, False, True]
    rec = batched.proposals["forward"]
    assert list(zip(rec.rejected_nolog.tolist(), rec.rejected_oob.tolist(),
                    rec.accepts.tolist())) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert_same_chains(batched, looped)
