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
from groupreg.sampler import (CACHES, FIT_TOL, AdaptiveProposal, Chain, ChainAborted,
                              beta_sigma_conditional, coarse_grid, fit_affine, initialize,
                              levenberg_marquardt, lie_mh_step, rho_weights, template_conditional,
                              transformed_template_conditional, update_beta_sigma,
                              update_forward_transform, update_template,
                              update_transformed_template)
from groupreg.spatial import (batched_nngp_weights, kriging_factor, library_weights,
                              neighbor_distances, predecessor_weights)
from groupreg.store import save_store
from groupreg.synth import (ScenarioSpec, base_glyph, gen_indicator_curves, generate,
                            indicator_template, rotate_glyph, rotation_about_center)
from groupreg.transforms import (AffineTransform, affine_apply, affine_compose, apply_stack,
                                 karcher_mean, lie_exp, lie_log)


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


def short_chain(case, sweeps=12):
    make_maps, settings, _ = CASES[case]
    cfg = RunConfig(total=sweeps, burn_in=sweeps // 2, thin=1, init_iters=3, **settings)
    return Chain(make_maps(), cfg)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cached_weights_track_alpha_and_rho(case):
    """After every sweep the cached distances equal ones recomputed from T_i,
    and the cached (B, F) equal a fresh brute-force solve."""
    chain = short_chain(case)
    tol = CASES[case][2]
    state, geom = chain.state, chain.geom
    for _ in range(chain.config.total):
        chain.sweep()
        assert state.factor.rho == state.rho
        oracle = batched_nngp_weights(geom.locations, geom.neighbor_sets, geom.locations,
                                      state.cov)
        assert weights_gap((state.tB, state.tF), oracle, state.alpha) < tol
        for i, t in enumerate(state.T):
            locs = affine_apply(t, geom.locations)
            assert np.array_equal(state.dist[i], neighbor_distances(
                locs, state.entry[i], geom.library, geom.locations))
            assert np.array_equal(state.nbr[i], geom.library.neighbor_indices[state.entry[i]])
            oracle = batched_nngp_weights(locs, state.nbr[i], geom.locations, state.cov)
            assert weights_gap((state.B[i], state.F[i]), oracle, state.alpha) < tol
    # Both rho outcomes were exercised, so a factor kept after a reject or
    # dropped after an accept would have shown.
    assert 0 < state.rho_accepts < state.rho_proposals


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

    factor = kriging_factor(geom.library, geom.predecessor_patterns, 0.7)
    _, (b, f) = rho_weights(state, geom, factor)
    for i, t in enumerate(state.T):
        dist = neighbor_distances(affine_apply(t, geom.locations), state.entry[i],
                                  geom.library, geom.locations)
        bi, fi = library_weights(dist, state.entry[i], geom.library, factor, state.alpha)
        assert np.array_equal(b[i], bi) and np.array_equal(f[i], fi)

    shape, rate, mu, lam = beta_sigma_conditional(state, hp)
    ref = np.random.default_rng(5)
    for i in range(len(state.T)):
        xt, y, ybw, x = state.XT[i], state.Y[i], state.Y_bw[i], state.X
        lam_i = 1.0 / (xt @ xt + x @ x + hp.lambda0)
        mu_i = lam_i * (hp.mu0 * hp.lambda0 + xt @ y + x @ ybw)
        rate_i = hp.a1_sigma + 0.5 * (y @ y + ybw @ ybw + hp.mu0 ** 2 * hp.lambda0
                                      - mu_i * mu_i / lam_i)
        assert np.allclose([lam[i], mu[i], rate[i]], [lam_i, mu_i, rate_i], rtol=1e-12, atol=0)
        sigma2_i = 1.0 / ref.gamma(shape=shape, scale=1.0 / rate_i)
        beta_i = ref.normal(mu_i, np.sqrt(lam_i * sigma2_i))
        loop[i] = sigma2_i, beta_i
    update_beta_sigma(state, hp, np.random.default_rng(5))
    assert np.allclose(np.column_stack([state.sigma2, state.beta]), loop, rtol=1e-12, atol=0)


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
        locs = np.concatenate([affine_apply(t, geom.locations) for t in state.T])
        entries = state.entry.ravel()
        b, f = library_weights(neighbor_distances(locs, entries, geom.library, geom.locations),
                               entries, geom.library, factor, state.alpha)
        return (predecessor_weights(geom.predecessor_patterns, factor, state.alpha),
                (b.reshape(n, v, k), f.reshape(n, v)))

    paths = []
    for run in range(2):
        if run:
            monkeypatch.setattr(sampler, "rho_weights", from_transforms)
        store, _ = short_chain(case).run()
        paths.append(tmp_path / f"run{run}.bin")
        save_store(store, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_template_draws_match_block_conditional():
    """20 000 block draws of X: mean and covariance against Q^-1 b and Q^-1."""
    state, geom, _ = _toy_state()
    # Weaken the data and X(T) terms 100-fold. As built, the X(T) values lie
    # between the sites and, the 1D exponential kernel being Markov, leave X
    # nearly independent across sites, where L^-T z and L^-1 z look alike.
    state.sigma2 *= 100.0
    state.F = state.F * 100.0
    ab, b = template_conditional(state, geom)
    cov = np.linalg.inv(band_to_dense(ab))
    mean = cov @ b
    rng = np.random.default_rng(11)
    n = 20000
    draws = np.array([update_template(state, geom, rng).copy() for _ in range(n)])
    sd = np.sqrt(np.diag(cov))
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.0 * sd / np.sqrt(n))
    # Standard error of a Gaussian sample covariance entry: sqrt((S_ii S_jj + S_ij^2) / n).
    se = np.sqrt((np.outer(sd * sd, sd * sd) + cov * cov) / n)
    assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) < 4.0 * se)


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


def chunked_template_conditional(state, geom):
    """(ab, b) of `template_conditional`, assembled anew on each call: every row's
    slots and values recomputed, chunk by chunk, then summed by one bincount."""
    v = state.X.size
    own = np.arange(v)[:, None]
    nsets = geom.neighbor_sets
    k = state.nbr.shape[-1]
    nbr, weights = state.nbr.reshape(-1, k), state.B.reshape(-1, k)
    xt_f = (state.XT / state.F).ravel()
    b = np.bincount(nbr.ravel(), (weights * xt_f[:, None]).ravel(), v)
    b += (state.beta / state.sigma2) @ state.Y_bw
    rows = [(np.hstack([own, np.where(nsets >= 0, nsets, own)]),
             np.hstack([np.ones((v, 1)), -state.tB]), 1.0 / state.tF),
            (nbr, weights, 1.0 / state.F.ravel())]
    families = [(np.ascontiguousarray(c.T), np.ascontiguousarray(w.T), finv)
                for c, w, finv in rows]
    n_band = 1 + max(int(np.max(c.max(axis=0) - c.min(axis=0))) for c, _, _ in families)
    slots, values = zip(*(t for f in families for t in band_terms(*f, n_band)))
    ab = np.bincount(np.concatenate(slots), np.concatenate(values), n_band * v)
    ab = ab.reshape(v, n_band).T
    ab[0] += np.sum(state.beta ** 2 / state.sigma2)
    return ab, b


def assert_template_conditional_is_the_chunked_one(state, geom):
    ab, b = template_conditional(state, geom)
    want_ab, want_b = chunked_template_conditional(state, geom)
    assert ab.shape == want_ab.shape and ab.flags.f_contiguous
    assert np.array_equal(ab, want_ab) and np.array_equal(b, want_b)
    return ab.shape[0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_template_conditional_is_the_chunked_assembly_bit_for_bit(case):
    """The slot tables built once per chain give the (ab, b) of the full
    assembly, bit for bit, after every sweep of a chain."""
    chain = short_chain(case, sweeps=6)
    for _ in range(chain.config.total):
        chain.sweep()
        assert_template_conditional_is_the_chunked_one(chain.state, chain.geom)


def test_template_conditional_rebuilds_its_slots_when_the_band_height_changes():
    """A row moved onto the library entry whose neighbors span the most
    columns widens the band; moved back, it narrows it again. Slot tables
    left at the old height would put every pair in the wrong place."""
    state, geom, _ = glyph_after_two_sweeps()
    lib = geom.library
    before = assert_template_conditional_is_the_chunked_one(state, geom)
    widest = int(np.argmax(np.ptp(lib.neighbor_indices, axis=1)))
    entry = state.entry[0, 5]
    for moved in (widest, entry):
        state.entry[0, 5] = moved
        state.nbr[0, 5] = lib.neighbor_indices[moved]
        height = assert_template_conditional_is_the_chunked_one(state, geom)
        assert (height > before) == (moved == widest)
    assert height == before


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
    state.tF = -state.tF
    state.F = -state.F
    with pytest.raises(IllConditioned):
        update_template(state, geom, np.random.default_rng(0))

    chain = short_chain("indicator")
    chain.state.tF = -chain.state.tF
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


def test_fit_affine_recovers_a_known_warp():
    """Noise-free Y = X(T) with T a rotation and shift: fit_affine finds T."""
    glyph = base_glyph()
    truth = affine_compose(AffineTransform.translation([1.0, -0.5]),
                           rotation_about_center(glyph.lattice, np.deg2rad(10.0)))
    y = glyph.with_values(interpolate(glyph, affine_apply(truth, glyph.lattice.locations())))
    got = fit_affine(y, glyph, 1.0, np.eye(3), coarse_grid(glyph.lattice))
    assert np.linalg.norm(lie_log(got) - lie_log(truth)) < 1e-5


def test_fit_affine_recovers_a_known_warp_1d():
    """Noise-free Y = X(T) with T a scale and shift of an indicator curve."""
    lattice = make_lattice_1d(-5.0, 5.0, 0.05)
    curve = ActivationMap(lattice, indicator_template(lattice.locations()[:, 0]))
    truth = AffineTransform.from_parts([[1.1]], [0.3])
    y = curve.with_values(interpolate(curve, affine_apply(truth, lattice.locations())))
    got = fit_affine(y, curve, 1.0, np.eye(2), coarse_grid(lattice))
    assert np.linalg.norm(lie_log(got) - lie_log(truth)) < 1e-5


@pytest.mark.parametrize("x, fun", [
    (np.zeros(6), 0.0),                                    # A = 0: singular
    (np.full(6, np.nan), 0.0),                             # not finite
    (np.array([1.0, 0.0, 0.5, 0.0, 1.0, 0.0]), np.nan),    # valid, objective NaN
], ids=["singular", "non-finite", "nan-objective"])
def test_fit_affine_falls_back_to_the_best_candidate(monkeypatch, x, fun):
    """An LM result that is no valid transform, or whose objective does not
    beat the best candidate's, gives that candidate, without raising."""
    glyph = base_glyph()
    start = rotation_about_center(glyph.lattice, np.deg2rad(5.0)).matrix

    def stub(point, p):
        point(p)
        return x, fun

    monkeypatch.setattr(sampler, "levenberg_marquardt", stub)
    assert fit_affine(glyph, glyph, 1.0, start) is start


def test_fit_affine_samples_once_per_lm_point(monkeypatch):
    """Each candidate costs one kernel pass for its value, and each LM point
    one pass for its residuals and Jacobian together: beta times the warp's
    at that point, less Y."""
    glyph = base_glyph()
    beta = 1.5
    truth = rotation_about_center(glyph.lattice, np.deg2rad(5.0))
    y = glyph.with_values(beta * interpolate(glyph, affine_apply(truth, glyph.lattice.locations())))
    warp = Warp(glyph, glyph.lattice.locations())
    grid = coarse_grid(glyph.lattice)[:7]
    passes, points = [], []
    sample = Warp.sample

    def counted_sample(self, u, deriv=False):
        if self is not warp:
            passes.append(deriv)
        return sample(self, u, deriv)

    def checked_lm(point, p):
        def checked_point(q):
            points.append(q.copy())
            r, jac = point(q)
            vals, want = warp.value_and_jacobian(q.reshape(2, 3))
            assert np.array_equal(r, beta * vals - y.values)
            assert np.array_equal(jac, beta * want)
            return r, jac

        return levenberg_marquardt(checked_point, p)

    monkeypatch.setattr(Warp, "sample", counted_sample)
    monkeypatch.setattr(sampler, "levenberg_marquardt", checked_lm)
    got = fit_affine(y, glyph, beta, np.eye(3), grid)
    assert len(points) > 2
    assert passes.count(False) == 1 + len(grid)
    assert passes.count(True) == len(points)
    assert np.linalg.norm(lie_log(got) - lie_log(truth)) < 1e-5


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


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("start", ["identity", "best-of-grid"])
def test_levenberg_marquardt_matches_minpack(dim, start):
    """On a noisy warp fit, the LM stops within 1e-8 relative of the objective
    MINPACK's lmder (`least_squares(method="lm")`) reaches from the same start
    with FIT_TOL as ftol, xtol and gtol; and, as it stops by the same tests,
    it takes at most 5 points more than lmder evaluates."""
    y, x, beta = noisy_fit_problem(dim)
    warp = Warp(x, y.lattice.locations())
    t0 = np.eye(dim + 1)
    if start == "best-of-grid":
        grid = coarse_grid(y.lattice)
        t0 = grid[int(np.argmin([np.sum((y.values - beta * warp(t)) ** 2) for t in grid]))]

    def point(p):
        vals, jac = warp.value_and_jacobian(p.reshape(dim, dim + 1))
        return beta * vals - y.values, beta * jac

    points = []
    p, f = levenberg_marquardt(lambda q: points.append(q) or point(q), t0[:dim].ravel())
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
    p, f = levenberg_marquardt(point, p0)
    assert len(calls) == 1 and p is p0 and np.isnan(f)


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

    p, f = levenberg_marquardt(point, np.array([-2.0]))
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

    p, f = levenberg_marquardt(point, np.array([1.0]))
    assert len(calls) == 200
    assert 0.0 < f < 1e-30


def test_set_up_builds_the_coarse_grid_once(monkeypatch):
    """`initialize` and the baseline's set-up build one coarse grid each and
    hand every subject's first fit that same list."""
    built, handed = [], []
    grid, fit = sampler.coarse_grid, sampler.fit_affine

    def counted_grid(lattice):
        built.append(grid(lattice))
        return built[-1]

    def recorded_fit(y_map, x_map, beta, start, grid=()):
        handed.append(grid)
        return fit(y_map, x_map, beta, start, grid)

    monkeypatch.setattr(sampler, "coarse_grid", counted_grid)
    monkeypatch.setattr(sampler, "fit_affine", recorded_fit)
    monkeypatch.setattr(baseline, "coarse_grid", counted_grid)
    monkeypatch.setattr(baseline, "fit_affine", recorded_fit)
    maps = indicator()
    initialize(maps, RunConfig(init_iters=2))
    assert len(built) == 1
    assert [g is built[0] for g in handed] == [True] * 3 + [False] * 3
    assert all(len(g) == 0 for g in handed[3:])
    handed.clear()
    baseline.ConventionalChain(maps, RunConfig(model="conventional", total=3, burn_in=1, thin=1))
    assert len(built) == 2 and all(g is built[1] for g in handed) and len(handed) == 3


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
    """The path `Warp` replaced: a fresh `interpolate` call per transform."""

    def __init__(self, amap, sites):
        self.amap, self.sites = amap, sites

    def __call__(self, t):
        return interpolate(self.amap, affine_apply(t, self.sites))

    def value_and_jacobian(self, top):
        """The two-call path's values, with the Jacobian of a real `Warp`."""
        h = np.eye(top.shape[0] + 1)
        h[:-1] = top
        _, jac = Warp(self.amap, self.sites).value_and_jacobian(top)
        return interpolate(self.amap, apply_stack(h[None], self.sites)[0]), jac


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
    """The step took delta and the accept uniform of each row from its
    generator, in row order, and nothing else."""
    ref = np.random.default_rng(seed)
    for _ in range(rows):
        ref.standard_normal(dim)
        ref.uniform()
    assert rng.uniform() == ref.uniform()


def nothing_inside(points, library):
    """`locate_entries` with every point outside the library."""
    entries, inside = spatial.locate_entries(points, library)
    return entries, np.zeros_like(inside)


def assert_is_factor_of(factor, cov):
    """`factor` is cov's lower Cholesky factor to rounding."""
    want = np.linalg.cholesky(cov)
    assert np.max(np.abs(factor - want)) <= 1e-14 * np.max(np.abs(want))


def test_frozen_proposal_factor_is_cached_and_exact():
    """Each factor is the current covariance's, to rounding, while adapting
    and once frozen; a frozen proposal's factor does not move."""
    adapt = AdaptiveProposal(2)
    rng = np.random.default_rng(0)
    for accepted in [True] * 8 + [False, True, False]:
        factor = adapt.proposal_factor()
        assert_is_factor_of(factor, adapt.proposal_cov())
        adapt.record(accepted, 0.01 * rng.standard_normal(2))
        assert not np.array_equal(adapt.proposal_factor(), factor)
    adapt.frozen = True
    factor = adapt.proposal_factor()
    adapt.record(True, 0.01 * rng.standard_normal(2))
    assert np.array_equal(adapt.proposal_factor(), factor)
    assert_is_factor_of(factor, adapt.proposal_cov())


def test_proposal_factor_runs_one_cholesky_per_accepted_delta(monkeypatch):
    """The covariance is factored once at the start and once after each delta
    accepted while adapting, however many proposals are made, and never once frozen."""
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    adapt = AdaptiveProposal(3)
    rng = np.random.default_rng(1)
    for k in range(30):
        adapt.proposal_factor()
        adapt.proposal_factor()
        adapt.record(k % 3 == 0, 0.01 * rng.standard_normal(3))
    adapt.proposal_factor()
    assert len(calls) == 1 + 10
    adapt.frozen = True
    for _ in range(5):
        adapt.proposal_factor()
        adapt.record(True, 0.01 * rng.standard_normal(3))
    assert len(calls) == 1 + 10


def test_lie_mh_step_rejects_out_of_library_proposals():
    def out_of_library(rows, proposals):
        assert rows.tolist() == [0, 1] and len(proposals) == 2
        return np.zeros(rows.size, dtype=bool), np.empty(0), (np.empty((0, 4)),)

    h = np.array([AffineTransform.rotation(0.3), AffineTransform.rotation(-0.2)])
    before = h.copy()
    adapts = [AdaptiveProposal(6) for _ in h]
    rng = np.random.default_rng(0)
    accepted, h_new, payload = lie_mh_step(h, np.zeros(2), out_of_library, adapts, rng)
    assert accepted.tolist() == [False, False]
    assert h_new.shape == (0, 3, 3) and payload[0].shape == (0, 4)
    for adapt in adapts:
        assert (adapt.rejected_oob, adapt.rejected_nolog) == (1, 0)
        assert (adapt.proposals, adapt.accepts) == (1, 0)
    assert np.array_equal(h, before)
    assert_step_draws_used(rng, 0, 6, rows=2)


def test_lie_mh_step_rejects_proposals_without_a_real_logarithm():
    """With lambda = 1 (1e4 times the initial scale), seed 3 proposes a
    transform with no real logarithm; the target is never evaluated."""
    def never(rows, proposals):
        raise AssertionError("log target evaluated for a rejected proposal")

    h = AffineTransform.rotation(2.5).matrix[None].copy()
    before = h.copy()
    adapt = AdaptiveProposal(6, log_lambda=0.0)
    rng = np.random.default_rng(3)
    accepted, h_new, payload = lie_mh_step(h, np.zeros(1), never, [adapt], rng)
    assert accepted.tolist() == [False] and h_new.shape == (0, 3, 3) and payload == ()
    assert (adapt.rejected_nolog, adapt.rejected_oob) == (1, 0)
    assert (adapt.proposals, adapt.accepts) == (1, 0)
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
    adapts = [AdaptiveProposal(2, log_lambda=np.log(0.15), frozen=True) for _ in b_means]
    rng = np.random.default_rng(seed)
    h = np.array([[[A_MEAN, b], [0.0, 1.0]] for b in b_means])

    def target(rows, proposals):
        return np.ones(rows.size, dtype=bool), toy_log_target(proposals, b_means[rows]), ()

    draws = np.empty((n_steps, n_rows, 2))
    log_old = toy_log_target(h, b_means)
    for k in range(n_steps):
        accepted, h_new, _ = lie_mh_step(h, log_old, target, adapts, rng)
        h[accepted] = h_new
        log_old = toy_log_target(h, b_means)
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
    adapts = [AdaptiveProposal(2) for _ in h]
    accepted = update_forward_transform(state, geom, hp, adapts, np.random.default_rng(0))
    assert accepted.tolist() == [False, False]
    assert all((adapt.rejected_oob, adapt.proposals) == (1, 1) for adapt in adapts)
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
    adapts = [AdaptiveProposal(2) for _ in h]
    accepted = update_forward_transform(state, geom, hp, adapts, np.random.default_rng(0))
    assert accepted.tolist() == [False, False]
    for adapt in adapts:
        assert (adapt.rejected_oob, adapt.rejected_nolog, adapt.proposals) == (1, 0, 1)
    assert np.array_equal(state.T, h)
    assert all(np.array_equal(getattr(state, name), a) for name, a in zip(CACHES, kept))


# The per-subject loop that one batched step per direction replaced: the
# oracle the batched steps must match bit for bit. Each subject's target is
# the stacked one on a stack of one.

def loop_lie_mh_step(h, log_old, log_target, adapt, rng):
    """One scalar Lie-MH step of the homogeneous matrix h; (h_new, payload) on
    accept, None otherwise."""
    delta = adapt.proposal_factor() @ rng.standard_normal(adapt.dim)
    accept_draw = np.log(rng.uniform())
    h_new = sampler.lie_exp(delta) @ h
    try:
        lie_log(h_new)
    except NoRealLogarithm:
        adapt.rejected_nolog += 1
        adapt.record(False, delta)
        return None
    try:
        log_new, payload = log_target(h_new)
    except OutOfLibraryBounds:
        adapt.rejected_oob += 1
        adapt.record(False, delta)
        return None
    if delta.size == 2:
        log_accept = min(0.0, log_new - log_old + 2.0 * float(delta[0]))
    else:
        log_accept = min(0.0, log_new - log_old + 3.0 * float(delta[0] + delta[4]))
    accepted = accept_draw < log_accept
    adapt.record(accepted, delta)
    return (h_new, payload) if accepted else None


def loop_forward_transform(i, state, geom, hp, adapt, rng):
    h_r, xt = state.T_r[i:i + 1], state.XT[i:i + 1]

    def target(t):
        h = t[None]
        inside, caches = sampler.subject_geometry(h, geom, state.factor, state.alpha)
        if not inside[0]:
            raise OutOfLibraryBounds("test: proposal left the library")
        return sampler.forward_log_target(h, h_r, state.X, xt, caches[2:], geom, hp)[0], caches

    log_old = sampler.forward_log_target(state.T[i:i + 1], h_r, state.X, xt,
                                         (state.nbr[i:i + 1], state.B[i:i + 1],
                                          state.F[i:i + 1]), geom, hp)[0]
    step = loop_lie_mh_step(state.T[i], log_old, target, adapt, rng)
    if step is not None:
        state.T[i], caches = step
        for name, value in zip(CACHES, caches):
            getattr(state, name)[i] = value[0]


def loop_reverse_transform(i, state, geom, hp, adapt, rng):
    h, beta, sigma2 = state.T[i:i + 1], state.beta[i:i + 1], state.sigma2[i:i + 1]

    def target(t_r):
        y_bw = state.warps[i](t_r)[None]
        return sampler.reverse_log_target(t_r[None], h, state.X, y_bw, beta, sigma2,
                                          geom, hp)[0], y_bw[0]

    log_old = sampler.reverse_log_target(state.T_r[i:i + 1], h, state.X,
                                         state.Y_bw[i:i + 1], beta, sigma2, geom, hp)[0]
    step = loop_lie_mh_step(state.T_r[i], log_old, target, adapt, rng)
    if step is not None:
        state.T_r[i], state.Y_bw[i] = step


def loop_updates(chain):
    """`Chain.updates` with the transform steps looped over subjects."""
    state, geom, hp, rng = chain.state, chain.geom, chain.config, chain.rng
    update_transformed_template(state, rng)
    update_template(state, geom, rng)
    for i, adapt in enumerate(chain.proposals["forward"]):
        loop_forward_transform(i, state, geom, hp, adapt, rng)
    for i, adapt in enumerate(chain.proposals["reverse"]):
        loop_reverse_transform(i, state, geom, hp, adapt, rng)
    update_beta_sigma(state, hp, rng)
    sampler.update_alpha(state, geom, hp, rng)
    sampler.update_rho(state, geom, hp, rng)


STATE_FIELDS = ("T", "T_r", "X", "XT", "Y_bw", "beta", "sigma2", "alpha", "rho", "tB", "tF",
                *CACHES)
PROPOSAL_FIELDS = ("log_lambda", "frozen", "_mean", "_m2", "proposals", "accepts",
                   "post_proposals", "post_accepts", "rejected_oob", "rejected_nolog")


def assert_same_chains(a, b):
    for name in STATE_FIELDS:
        assert np.array_equal(getattr(a.state, name), getattr(b.state, name)), name
    for direction, recs in a.proposals.items():
        for ra, rb in zip(recs, b.proposals[direction], strict=True):
            for name in PROPOSAL_FIELDS:
                assert np.array_equal(getattr(ra, name), getattr(rb, name)), (direction, name)
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_transform_steps_match_the_loop_over_subjects(case):
    """Through burn-in and after it, sweeps with one batched step per direction
    leave the state, the proposals and the generator as the loop does, bit
    for bit, with both outcomes of both steps seen."""
    batched, looped = short_chain(case, sweeps=16), short_chain(case, sweeps=16)
    looped.updates = lambda: loop_updates(looped)
    for _ in range(batched.config.total):
        batched.sweep()
        looped.sweep()
        assert_same_chains(batched, looped)
    for recs in batched.proposals.values():
        assert 0 < sum(r.accepts for r in recs) < sum(r.proposals for r in recs)


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
    store, _ = conventional.run()
    assert_transform_stacks(n, d, conventional.ts)
    # Each record holds its own copy of the transforms, not the chain's stack.
    assert not np.array_equal(store.H_fwd[0], store.H_fwd[-1])


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

    batched, looped = short_chain("indicator"), short_chain("indicator")
    for chain in (batched, looped):
        for adapt in chain.proposals["forward"]:
            adapt.log_lambda = np.log(1e-12)   # a step so small that it is accepted
    first_two_fail()
    accepted = update_forward_transform(batched.state, batched.geom, batched.config,
                                        batched.proposals["forward"], batched.rng)
    first_two_fail()
    for i, adapt in enumerate(looped.proposals["forward"]):
        loop_forward_transform(i, looped.state, looped.geom, looped.config, adapt, looped.rng)
    assert accepted.tolist() == [False, False, True]
    recs = batched.proposals["forward"]
    assert [(r.rejected_nolog, r.rejected_oob, r.accepts) for r in recs] == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert_same_chains(batched, looped)
