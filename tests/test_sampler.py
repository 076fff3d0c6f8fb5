import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from groupreg import baseline, sampler
from groupreg.audit import _toy_state, band_to_dense, weights_gap
from groupreg.config import RunConfig
from groupreg.errors import (DegenerateInput, IllConditioned, NonPositiveScale,
                             OutOfLibraryBounds, SingularTransform)
from groupreg.grids import ActivationMap, Lattice
from groupreg.interp import interpolate
from groupreg.sampler import (AdaptiveProposal, Chain, ChainAborted, beta_sigma_conditional,
                              fit_affine, initialize, lie_mh_step, rho_weights,
                              template_conditional, transformed_template_conditional,
                              update_beta_sigma, update_forward_transform, update_template,
                              update_transformed_template)
from groupreg.spatial import (batched_nngp_weights, kriging_factor, library_weights,
                              neighbor_distances, predecessor_weights)
from groupreg.store import save_store
from groupreg.synth import (ScenarioSpec, base_glyph, gen_indicator_curves, generate,
                            rotate_glyph, rotation_about_center)
from groupreg.transforms import (AffineTransform, affine_apply, affine_compose, karcher_mean,
                                 lie_exp, lie_log)


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
    state.T = [affine_compose(t, shift) for t in state.T]
    chain = Chain(maps, cfg, initial_state=state)
    before = [t.matrix.copy() for t in state.T]
    assert np.linalg.norm(lie_log(karcher_mean(state.T))) > 0.01

    def out_of_library(*args):
        raise OutOfLibraryBounds("test: proposal left the library")

    monkeypatch.setattr(sampler, "subject_geometry", out_of_library)
    store, diagnostics = chain.run()
    assert diagnostics["rejected_out_of_library"] == [1, 1, 1]
    for t, matrix in zip(chain.state.T, before, strict=True):
        assert np.array_equal(t.matrix, matrix)
    assert store.n_samples == 1
    for h_fwd, betas in zip(store.H_fwd, store.beta, strict=True):
        mean = karcher_mean([AffineTransform(h) for h in h_fwd])
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
    got = fit_affine(y, glyph, 1.0, AffineTransform.identity(2), coarse=True)
    assert np.linalg.norm(lie_log(got) - lie_log(truth)) < 1e-5


def test_fit_affine_scores_singular_vertices_as_infinite(monkeypatch):
    """A Nelder-Mead vertex with no invertible transform is a worse vertex, not a failure."""
    glyph = base_glyph()
    truth = rotation_about_center(glyph.lattice, np.deg2rad(5.0))
    y = glyph.with_values(interpolate(glyph, affine_apply(truth, glyph.lattice.locations())))

    raised = []

    def lie_exp_singular_above(dv):
        if dv[0] > 0.002:
            raised.append(dv)
            raise SingularTransform("test: singular region of the Lie coordinates")
        return lie_exp(dv)

    monkeypatch.setattr(sampler, "lie_exp", lie_exp_singular_above)
    got = fit_affine(y, glyph, 1.0, AffineTransform.identity(2))
    assert raised
    assert lie_log(got)[0] <= 0.002
    assert np.linalg.norm(lie_log(got) - lie_log(truth)) < 1e-2


def test_initialize_is_deterministic():
    maps = small_glyph()
    cfg = RunConfig(seed=4, init_iters=3)
    first, second = (initialize(maps, cfg) for _ in range(2))
    assert np.array_equal(first.X, second.X)
    assert (first.alpha, first.rho) == (second.alpha, second.rho)
    for a, b in zip(first.T + first.T_r, second.T + second.T_r, strict=True):
        assert np.array_equal(a.matrix, b.matrix)
    for name in ("Y", "XT", "Y_bw", "beta", "sigma2"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


class _TwoCallWarp:
    """The path `Warp` replaced: a fresh `interpolate` call per transform."""

    def __init__(self, amap, sites):
        self.amap, self.sites = amap, sites

    def __call__(self, t):
        return interpolate(self.amap, affine_apply(t, self.sites))


@pytest.mark.parametrize("case", sorted(CASES))
def test_initialize_is_unchanged_by_the_prebuilt_warps(monkeypatch, case):
    """Every warp of the set-up through `Warp` gives the bits of the two-call path."""
    make_maps, settings, _ = CASES[case]
    cfg = RunConfig(init_iters=2, **settings)
    maps = make_maps()
    fast = initialize(maps, cfg)
    monkeypatch.setattr(sampler, "Warp", _TwoCallWarp)
    slow = initialize(maps, cfg)
    for a, b in zip(fast.T + fast.T_r, slow.T + slow.T_r, strict=True):
        assert np.array_equal(a.matrix, b.matrix)
    for name in ("X", "beta", "sigma2", "XT", "Y_bw"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name))


def assert_step_draws_used(rng, seed, dim):
    """The step took delta and the accept uniform from its generator, and nothing else."""
    ref = np.random.default_rng(seed)
    ref.standard_normal(dim)
    ref.uniform()
    assert rng.uniform() == ref.uniform()


def test_frozen_proposal_factor_is_cached_and_exact():
    """While adapting, each factor is the current covariance's; once frozen,
    one factor equal to a fresh Cholesky is reused."""
    adapt = AdaptiveProposal(2)
    rng = np.random.default_rng(0)
    for _ in range(8):
        factor = adapt.proposal_factor()
        assert np.array_equal(factor, np.linalg.cholesky(adapt.proposal_cov()))
        adapt.record(True, 0.01 * rng.standard_normal(2))
        assert not np.array_equal(adapt.proposal_factor(), factor)
    adapt.frozen = True
    factor = adapt.proposal_factor()
    assert adapt.proposal_factor() is factor
    assert np.array_equal(factor, np.linalg.cholesky(adapt.proposal_cov()))
    adapt.frozen = False
    adapt.record(True, 0.01 * rng.standard_normal(2))
    adapt.frozen = True
    assert np.array_equal(adapt.proposal_factor(), np.linalg.cholesky(adapt.proposal_cov()))
    assert not np.array_equal(adapt.proposal_factor(), factor)


def test_lie_mh_step_rejects_out_of_library_proposals():
    def out_of_library(t):
        raise OutOfLibraryBounds("test: proposal left the library")

    t = AffineTransform.rotation(0.3)
    before = t.matrix.copy()
    adapt = AdaptiveProposal(6)
    rng = np.random.default_rng(0)
    assert lie_mh_step(t, 0.0, out_of_library, adapt, rng) is None
    assert (adapt.rejected_oob, adapt.rejected_nolog) == (1, 0)
    assert (adapt.proposals, adapt.accepts) == (1, 0)
    assert np.array_equal(t.matrix, before)
    assert_step_draws_used(rng, 0, 6)


def test_lie_mh_step_rejects_proposals_without_a_real_logarithm():
    """With lambda = 1 (1e4 times the initial scale), seed 3 proposes a
    transform with no real logarithm; the target is never evaluated."""
    def never(t):
        raise AssertionError("log target evaluated for a rejected proposal")

    t = AffineTransform.rotation(2.5)
    before = t.matrix.copy()
    adapt = AdaptiveProposal(6, log_lambda=0.0)
    rng = np.random.default_rng(3)
    assert lie_mh_step(t, 0.0, never, adapt, rng) is None
    assert (adapt.rejected_nolog, adapt.rejected_oob) == (1, 0)
    assert (adapt.proposals, adapt.accepts) == (1, 0)
    assert np.array_equal(t.matrix, before)
    assert_step_draws_used(rng, 3, 6)


# 1D stationarity toy: pi(a, b) = N(a; 1, 0.3^2) on (0.3, 3) times N(b; 0.5, 1),
# a density in the entries (a, b) of T(s) = a s + b, as the model's targets are.
A_MEAN, A_SD, A_LO, A_HI, B_MEAN, B_SD = 1.0, 0.3, 0.3, 3.0, 0.5, 1.0
# Allowed |mean - truth| in batch-means Monte-Carlo standard errors.
STATIONARITY_Z = 5.0


def toy_log_target(t):
    (a, b), = t.matrix[:1].tolist()
    if not A_LO < a < A_HI:
        return -np.inf, None
    return -0.5 * ((a - A_MEAN) / A_SD) ** 2 - 0.5 * ((b - B_MEAN) / B_SD) ** 2, None


def stationarity_z_scores(n_steps=20000, n_batches=50, seed=0):
    """(mean - truth) / batch-means MCSE of E[a], Var[a], E[b], Var[b] over a
    lie_mh_step chain with the fixed proposal covariance 0.15 I."""
    adapt = AdaptiveProposal(2, log_lambda=np.log(0.15), frozen=True)
    rng = np.random.default_rng(seed)
    t = AffineTransform.from_parts([[A_MEAN]], [B_MEAN])
    log_old = toy_log_target(t)[0]
    draws = np.empty((n_steps, 2))
    for k in range(n_steps):
        step = lie_mh_step(t, log_old, toy_log_target, adapt, rng)
        if step is not None:
            t = step[0]
            log_old = toy_log_target(t)[0]
        draws[k] = t.matrix[0]

    density = lambda a: norm.pdf(a, A_MEAN, A_SD)
    mass = quad(density, A_LO, A_HI)[0]
    mean_a = quad(lambda a: a * density(a), A_LO, A_HI)[0] / mass
    var_a = quad(lambda a: (a - mean_a) ** 2 * density(a), A_LO, A_HI)[0] / mass
    a, b = draws.T
    stats = {"E[a]": (a, mean_a), "Var[a]": ((a - mean_a) ** 2, var_a),
             "E[b]": (b, B_MEAN), "Var[b]": ((b - B_MEAN) ** 2, B_SD ** 2)}
    z = {}
    for name, (values, truth) in stats.items():
        batch_means = values.reshape(n_batches, -1).mean(axis=1)
        mcse = batch_means.std(ddof=1) / np.sqrt(n_batches)
        z[name] = (values.mean() - truth) / mcse
    return z


def test_lie_mh_step_samples_its_target():
    """Mean and variance of a and b match quadrature within STATIONARITY_Z MCSEs."""
    z = stationarity_z_scores()
    assert all(abs(v) < STATIONARITY_Z for v in z.values()), z


def test_stationarity_test_sees_the_tr_l_hastings_factor(monkeypatch):
    """With the factor on tr L set to 1 instead of d + 1 = 2, the chain samples
    pi(a, b) / a, whose E[a] is ~0.095 below the target's, and the test fails."""
    monkeypatch.setattr(sampler, "lie_mh_log_acceptance",
                        lambda log_old, log_new, delta: min(0.0, log_new - log_old + delta[0]))
    z = stationarity_z_scores()
    assert z["E[a]"] < -STATIONARITY_Z, z


CACHES = ("dist", "entry", "nbr", "B", "F")


def test_rejected_forward_update_leaves_the_subject_unchanged(monkeypatch):
    state, geom, hp = _toy_state()
    t = state.T[0]
    kept = [getattr(state, name).copy() for name in CACHES]

    def out_of_library(*args):
        raise OutOfLibraryBounds("test: proposal left the library")

    monkeypatch.setattr(sampler, "subject_geometry", out_of_library)
    adapt = AdaptiveProposal(2)
    assert not update_forward_transform(0, state, geom, hp, adapt, np.random.default_rng(0))
    assert (adapt.rejected_oob, adapt.proposals) == (1, 1)
    assert state.T[0] is t
    assert all(np.array_equal(getattr(state, name), a) for name, a in zip(CACHES, kept))
