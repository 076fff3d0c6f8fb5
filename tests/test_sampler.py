import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from groupreg import sampler
from groupreg.audit import _toy_state, band_to_dense, weights_gap
from groupreg.config import RunConfig
from groupreg.errors import (DegenerateInput, IllConditioned, NonPositiveScale,
                             OutOfLibraryBounds, SingularTransform)
from groupreg.grids import ActivationMap, Lattice, make_lattice_1d
from groupreg.interp import interpolate
from groupreg.model import Hyperparams, SubjectBlock
from groupreg.sampler import (AdaptiveProposal, Chain, ChainAborted, fit_affine, initialize,
                              lie_mh_step, template_conditional, update_beta_sigma,
                              update_forward_transform, update_template)
from groupreg.spatial import batched_nngp_weights
from groupreg.store import save_store
from groupreg.synth import (ScenarioSpec, base_glyph, gen_indicator_curves, generate,
                            rotate_glyph, rotation_about_center)
from groupreg.transforms import AffineTransform, affine_apply, affine_compose, lie_exp, lie_log


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
    """After every sweep the cached (B, F) equal a fresh brute-force solve."""
    chain = short_chain(case)
    tol = CASES[case][2]
    state, geom = chain.state, chain.geom
    for _ in range(chain.config.total):
        chain.sweep()
        assert state.factor.rho == state.rho
        oracle = batched_nngp_weights(geom.locations, geom.neighbor_sets, geom.locations,
                                      state.cov)
        assert weights_gap((state.tB, state.tF), oracle, state.alpha) < tol
        for blk in state.blocks:
            assert np.array_equal(blk.locs, affine_apply(blk.T, geom.locations))
            oracle = batched_nngp_weights(blk.locs, blk.nbr, geom.locations, state.cov)
            assert weights_gap((blk.B, blk.F), oracle, state.alpha) < tol
    # Both rho outcomes were exercised, so a factor kept after a reject or
    # dropped after an accept would have shown.
    assert 0 < state.rho_accepts < state.rho_proposals


@pytest.mark.parametrize("case", sorted(CASES))
def test_same_seed_gives_identical_store(case, tmp_path):
    paths = []
    for run in range(2):
        store, _ = short_chain(case, sweeps=6).run()
        paths.append(tmp_path / f"run{run}.bin")
        save_store(store, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_template_draws_match_block_conditional():
    """20 000 block draws of X: mean and covariance against Q^-1 b and Q^-1."""
    state, geom, _ = _toy_state()
    # Weaken the data and X(T) terms 100-fold. As built, the X(T) values lie
    # between the sites and, the 1D exponential kernel being Markov, leave X
    # nearly independent across sites, where L^-T z and L^-1 z look alike.
    for blk in state.blocks:
        blk.sigma2 *= 100.0
        blk.F = blk.F * 100.0
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
    for blk in state.blocks:
        blk.F = -blk.F
    with pytest.raises(IllConditioned):
        update_template(state, geom, np.random.default_rng(0))

    chain = short_chain("indicator")
    chain.state.tF = -chain.state.tF
    with pytest.raises(ChainAborted) as err:
        chain.sweep()
    assert isinstance(err.value.__cause__, IllConditioned)


@pytest.mark.parametrize("bad", [np.nan, 1e200])
def test_beta_sigma_rejects_non_finite_rate(bad):
    lattice = make_lattice_1d(0.0, 3.0, 1.0)
    y = np.array([1.0, bad, 0.5, 2.0])
    ident = AffineTransform.identity(1)
    blk = SubjectBlock(Y=ActivationMap(lattice, y), T=ident, T_r=ident, beta=1.0,
                       sigma2=1.0, XT=np.ones(4), Y_bw=y)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonPositiveScale):
        update_beta_sigma(blk, np.ones(4), Hyperparams(), np.random.default_rng(0))


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
    for a, b in zip(first.blocks, second.blocks, strict=True):
        assert np.array_equal(a.T.matrix, b.T.matrix)
        assert np.array_equal(a.T_r.matrix, b.T_r.matrix)
        assert (a.beta, a.sigma2) == (b.beta, b.sigma2)
        assert np.array_equal(a.XT, b.XT) and np.array_equal(a.Y_bw, b.Y_bw)


def assert_step_draws_used(rng, seed, dim):
    """The step took delta and the accept uniform from its stream, and nothing else."""
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


def test_rejected_forward_update_leaves_the_subject_unchanged(monkeypatch):
    state, geom, hp = _toy_state()
    blk = state.blocks[0]
    kept = (blk.T, blk.locs, blk.nbr, blk.B, blk.F)

    def out_of_library(*args):
        raise OutOfLibraryBounds("test: proposal left the library")

    monkeypatch.setattr(sampler, "subject_geometry", out_of_library)
    adapt = AdaptiveProposal(2)
    assert not update_forward_transform(blk, state, geom, hp, adapt, np.random.default_rng(0))
    assert (adapt.rejected_oob, adapt.proposals) == (1, 1)
    assert all(a is b for a, b in zip(kept, (blk.T, blk.locs, blk.nbr, blk.B, blk.F)))
