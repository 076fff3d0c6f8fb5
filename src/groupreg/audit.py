"""Invariant audits: conjugacy, Metropolis targets, detailed balance, NNGP oracles, geometry.

Each audit returns a list of {name, value, tol, passed} dicts; the CLI's
`audit` subcommand prints one line per check and exits 4 on any failure.
The same functions back the acceptance test suite.

The conjugacy and target checks each move one field of a toy state, or of
a `baseline.ConventionalChain` built on the toy maps, through one helper,
`_joint_change`, against one oracle per model: `model.gibbs_log_posterior`
for the symmetric model and `baseline.conventional_log_joint` for the
baseline. Both read only the primary fields and no cache, so the helper
moves one field alone. The closed forms the moves are checked against come
from the sweep's own functions: the conditionals, each Metropolis target's
one function in `sampler` and `baseline`, which gives the current state's
log target and the proposals' together, and the kernel designs and K^-1 of
the chain. No target is assembled here, so a change to a target's code is a
change to what these checks see.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .baseline import (ConventionalChain, conventional_log_joint, conventional_sigma2_conditional,
                       conventional_target, conventional_w_conditional, kernel_designs)
from .config import RunConfig
from .grids import ActivationMap, Lattice, make_lattice_1d
from .interp import Warp
from .model import (Hyperparams, TransformPrior, build_geometry, gibbs_log_posterior,
                    invgamma_logpdf, normal_logpdf, sigma_s_matrix)
from .sampler import (Chain, ChainState, alpha_conditional, beta_sigma_conditional,
                      forward_target, initialize, lie_mh_log_acceptance, refresh_caches,
                      reverse_target, rho_target, template_conditional,
                      transformed_template_conditional)
from .spatial import (CovarianceParams, batched_nngp_weights, cov_matrix,
                      dense_gp_log_density, dense_kriging, lookup_neighbors,
                      nngp_log_density, conditional_means,
                      build_neighbor_library, build_ordered_neighbor_sets, kriging_factor,
                      library_weights, lookup_entries, neighbor_distances,
                      predecessor_weights)
from .synth import ScenarioSpec, gen_indicator_curves
from .transforms import (AffineTransform, affine_apply, affine_compose,
                         affine_inverse, karcher_mean, lie_exp, lie_log)

_check = lambda name, value, tol: {"name": name, "value": float(value),
                                   "tol": float(tol), "passed": bool(value < tol)}


def _toy_state(seed=0, n_subjects=2):
    """V=4, N=2 1D instance with everything in general position, the forward
    and reverse transform priors too: a target that reads the other
    direction's prior differs from its own."""
    rng = np.random.default_rng(seed)
    lattice = Lattice(shape=(4,), spacing=np.array([1.0]), origin=np.array([0.0]))
    hp = Hyperparams(lambda_r=1.2, m=2, a_T=1.5, b_T=0.6, a_Tr=0.4, b_Tr=1.8)
    geom = build_geometry(lattice, hp, margin=4)
    cov = CovarianceParams(alpha=1.3, rho=0.8)

    x = rng.normal(size=4)
    params = [(1.05, 0.3), (0.95, -0.2)][:n_subjects]
    ts, ts_r, maps, betas, sigma2s, xts = [], [], [], [], [], []
    for scale, shift in params:
        h = np.array([[scale, shift], [0.0, 1.0]])
        ts.append(h)
        ts_r.append(affine_inverse(h) @ np.array([[1.0, rng.normal() * 0.05], [0.0, 1.0]]))
        maps.append(ActivationMap(lattice, rng.normal(size=4) + 1.0))
        betas.append(rng.uniform(0.8, 1.2))
        sigma2s.append(rng.uniform(0.4, 0.9))
        xts.append(rng.normal(size=4))
    ts_r = np.array(ts_r)
    warps = Warp(maps)
    state = ChainState(X=x, maps=maps, T=np.array(ts), T_r=ts_r,
                       Y=np.stack([m.values for m in maps]),
                       XT=np.stack(xts), Y_bw=warps(ts_r), beta=np.array(betas),
                       sigma2=np.array(sigma2s), alpha=cov.alpha, rho=cov.rho, warps=warps)
    refresh_caches(state, geom)
    return state, geom, hp


def band_to_dense(ab):
    """Symmetric dense matrix from LAPACK lower-band storage (Q[j + d, j] at [d, j])."""
    v = ab.shape[1]
    q = np.zeros((v, v))
    for d in range(ab.shape[0]):
        j = np.arange(v - d)
        q[j + d, j] = q[j, j + d] = ab[d, :v - d]
    return q


def _toy_conventional(state, hp, rng):
    """A `ConventionalChain` on the toy state's maps, under the toy's prior
    of T, moved to the toy's T_i and sigma_i^2 and a random w."""
    chain = ConventionalChain(state.maps, RunConfig(model="conventional", a_T=hp.a_T,
                                                    b_T=hp.b_T))
    chain.ts, chain.sigma2 = state.T.copy(), state.sigma2.copy()
    chain.phis = kernel_designs(chain.ts, chain.locs, chain.landmarks)
    chain.w = rng.normal(size=len(chain.landmarks))
    return chain


def _joint_change(obj, log_joint, base, field, value, index=None):
    """log_joint() - base with obj.<field> set to value, or, given an index,
    to a copy of the field with only entry `index` set to value. The field's
    own object is put back afterwards, also when log_joint raises."""
    old = getattr(obj, field)
    if index is not None:
        value, entry = old.copy(), value
        value[index] = entry
    setattr(obj, field, value)
    try:
        return log_joint() - base
    finally:
        setattr(obj, field, old)


def conjugacy_audit(seed=0, tol=1e-8):
    """Closed-form conditional log-ratios vs joint log-ratios, every conjugate update."""
    results = []
    state, geom, hp = _toy_state(seed)
    joint = partial(gibbs_log_posterior, state, hp, geom)
    move = partial(_joint_change, state, joint, joint())

    # X(T_i) element.
    mean, var = transformed_template_conditional(state)
    l = 0, 2
    new_val = state.XT[l] + 0.7
    closed = (normal_logpdf(new_val, mean[l], var[l])
              - normal_logpdf(state.XT[l], mean[l], var[l]))
    results.append(_check("conjugacy.XT_element", abs(closed - move("XT", new_val, l)), tol))

    # X as one block: the joint's change under a whole-vector move is the
    # change of -1/2 x'Qx + b'x, with Q, b and so x in the band's order.
    x_new = state.X + np.random.default_rng(seed + 2).normal(scale=0.5, size=state.X.size)

    def x_block_gap(change):
        ab, b = template_conditional(state, geom)
        q, x, y = band_to_dense(ab), state.X[state.band.order], x_new[state.band.order]
        return abs(-0.5 * (y @ q @ y - x @ q @ x) + b @ (y - x) - change)

    results.append(_check("conjugacy.X_block", x_block_gap(move("X", x_new)), tol))

    # beta (sigma^2 held fixed), of subject 1.
    shape, rate, mu_n, lam_n = beta_sigma_conditional(state, hp)
    rate, mu_n, lam_n = rate[1], mu_n[1], lam_n[1]
    beta, s2 = state.beta[1], state.sigma2[1]
    new_beta = beta + 0.3
    closed = (normal_logpdf(new_beta, mu_n, lam_n * s2)
              - normal_logpdf(beta, mu_n, lam_n * s2))
    results.append(_check("conjugacy.beta", abs(closed - move("beta", new_beta, 1)), tol))

    # sigma^2 given beta: IG(shape + 1/2, rate + (beta - mu_n)^2 / (2 lam_n)).
    new_s2 = s2 * 1.7
    sigma2_change = move("sigma2", new_s2, 1)
    shape_b, rate_b = shape + 0.5, rate + 0.5 * (beta - mu_n) ** 2 / lam_n
    closed = (invgamma_logpdf(new_s2, shape_b, rate_b)
              - invgamma_logpdf(s2, shape_b, rate_b))
    results.append(_check("conjugacy.sigma2", abs(closed - sigma2_change), tol))

    # sigma^2 as the sampler draws it, beta marginalized: the joint's change
    # in sigma^2 at fixed beta is that of IG(sigma^2; shape, rate) times
    # N(beta; mu_n, lam_n sigma^2).
    closed = (invgamma_logpdf(new_s2, shape, rate) + normal_logpdf(beta, mu_n, lam_n * new_s2)
              - invgamma_logpdf(s2, shape, rate) - normal_logpdf(beta, mu_n, lam_n * s2))
    results.append(_check("conjugacy.sigma2_marginal", abs(closed - sigma2_change), tol))

    # alpha.
    shape, rate = alpha_conditional(state, hp, conditional_means(state.X, state.nbr, state.B))
    new_alpha = state.alpha * 1.4
    closed = (invgamma_logpdf(new_alpha, shape, rate)
              - invgamma_logpdf(state.alpha, shape, rate))
    results.append(_check("conjugacy.alpha", abs(closed - move("alpha", new_alpha)), tol))

    # X as one block again, after alpha moves as `update_alpha` moves it: T
    # and rho stay, so Q's NNGP part is the band's kept sum, rescaled.
    alpha, f = state.alpha, state.F
    state.F, state.alpha = f * (new_alpha / alpha), new_alpha
    try:
        gap = (x_block_gap(_joint_change(state, joint, joint(), "X", x_new))
               if state.band.holds(state) else np.inf)
    finally:
        state.F, state.alpha = f, alpha
    results.append(_check("conjugacy.X_block_reused", gap, tol))

    # The baseline's w and sigma^2 against the conventional model's joint.
    rng = np.random.default_rng(seed + 4)
    chain = _toy_conventional(state, hp, rng)
    conv_move = partial(_joint_change, chain, partial(conventional_log_joint, chain),
                        conventional_log_joint(chain))
    ys, phis, w, sigma2s = chain.ys, chain.phis, chain.w, chain.sigma2
    prec, _, mean = conventional_w_conditional(phis, ys, sigma2s, chain.k_inv)
    w_new = w + rng.normal(scale=0.5, size=w.size)
    closed = -0.5 * ((w_new - mean) @ prec @ (w_new - mean) - (w - mean) @ prec @ (w - mean))
    results.append(_check("conjugacy.conventional_w", abs(closed - conv_move("w", w_new)), tol))

    shape, rate = conventional_sigma2_conditional(ys[1], phis[1], w, hp)
    new_s2 = sigma2s[1] * 1.7
    closed = invgamma_logpdf(new_s2, shape, rate) - invgamma_logpdf(sigma2s[1], shape, rate)
    results.append(_check("conjugacy.conventional_sigma2",
                          abs(closed - conv_move("sigma2", new_s2, 1)), tol))
    return results


def target_audit(seed=0, tol=1e-8):
    """Each Metropolis log target's change vs the joint log density's change.

    A transform move changes the forward, reverse or conventional log target
    by what it changes the model's joint log density: `gibbs_log_posterior`
    for the symmetric model, `conventional_log_joint` for the baseline. So
    does a move of rho change rho's log target. Each target is the step's
    own, `forward_target`, `reverse_target`, `conventional_target` and
    `rho_target`, and one call gives the change: the move's log target less
    the current state's.
    """
    state, geom, hp = _toy_state(seed)
    rng = np.random.default_rng(seed + 3)
    joint = partial(gibbs_log_posterior, state, hp, geom)
    move = partial(_joint_change, state, joint, joint())
    worst = dict.fromkeys(("target.forward", "target.reverse", "target.conventional",
                           "target.rho"), 0.0)
    chain = _toy_conventional(state, hp, rng)
    conv_move = partial(_joint_change, chain, partial(conventional_log_joint, chain),
                        conventional_log_joint(chain))

    def note(name, closed, joint):
        worst[name] = max(worst[name], abs(closed - joint))

    # Moves of subject 0's transforms, each proposal's target on a stack of one.
    row = np.array([0])
    change = lambda target: target[2][0] - target[1][0]
    for _ in range(5):
        t_new = lie_exp(0.05 * rng.standard_normal(2)) @ state.T[0]
        note("target.forward", change(forward_target(state, geom, hp, row, t_new[None])),
             move("T", t_new, 0))
        t_r_new = lie_exp(0.05 * rng.standard_normal(2)) @ state.T_r[0]
        note("target.reverse", change(reverse_target(state, geom, hp, row, t_r_new[None])),
             move("T_r", t_r_new, 0))
        note("target.conventional", change(conventional_target(chain, row, t_new[None])),
             conv_move("ts", t_new, 0))

    means = conditional_means(state.X, state.nbr, state.B)
    for rho in (0.3, 1.1, 2.6):
        log_old, log_new, *_ = rho_target(state, geom, rho, means)
        note("target.rho", log_new - log_old, move("rho", rho))
    return [_check(name, gap, tol) for name, gap in worst.items()]


def _proposal_log_density(t, delta, cov, h=1e-5):
    """log q(exp(delta) t | t) in the matrix entries of (A, b), by central differences.

    log N(delta; 0, cov) - log |det d vec(exp(delta) t) / d delta|, vec the
    top d rows of the homogeneous matrix: a density computed without the
    Lie-algebra identities behind `lie_mh_log_acceptance`.
    """
    n = delta.size
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        up = (lie_exp(delta + e) @ t)[:-1].ravel()
        dn = (lie_exp(delta - e) @ t)[:-1].ravel()
        jac[:, j] = (up - dn) / (2.0 * h)
    _, logdet_cov = np.linalg.slogdet(2.0 * np.pi * cov)
    return (-0.5 * (logdet_cov + delta @ np.linalg.solve(cov, delta))
            - np.log(abs(np.linalg.det(jac))))


def _balance_gap(target, draw_start, n_pairs, rng, prop_cov):
    """Worst gap between the two sides of detailed balance over random pairs.

    y = exp(delta) x, and the reverse increment is the logarithm of x y^-1.
    `target(rows, h)` is a target as `lie_mh_step` takes it, called on a
    stack of one; only its log_new is read. A pair with a point outside the
    neighbor library is not a valid pair and is replaced by another.
    """
    chol = np.linalg.cholesky(prop_cov)
    row = np.array([0])
    worst = 0.0
    done = 0
    while done < n_pairs:
        t_x = draw_start(rng)
        delta = chol @ rng.standard_normal(prop_cov.shape[0])
        t_y = lie_exp(delta) @ t_x
        (in_x, _, lt_x, _), (in_y, _, lt_y, _) = target(row, t_x[None]), target(row, t_y[None])
        if not (in_x[0] and in_y[0]):
            continue
        lt_x, lt_y = lt_x[0], lt_y[0]
        d_rev = lie_log(t_x @ affine_inverse(t_y))
        lhs = (lie_mh_log_acceptance(lt_x, lt_y, delta) + lt_x
               + _proposal_log_density(t_x, delta, prop_cov))
        rhs = (lie_mh_log_acceptance(lt_y, lt_x, d_rev) + lt_y
               + _proposal_log_density(t_y, d_rev, prop_cov))
        worst = max(worst, abs(lhs - rhs))
        done += 1
    return worst


def detailed_balance_audit(n_pairs=100, seed=0, tol=1e-6):
    """Both sides of alpha(x->y) pi(x) q(y|x) = alpha(y->x) pi(y) q(x|y).

    q is the finite-difference proposal density of `_proposal_log_density`,
    so a wrong Hastings term in `lie_mh_log_acceptance` shows as a gap of
    the size of that error. In 1D pi is the sampler's forward target on the
    toy state (`forward_target`); in 2D it is a transform prior on a 5x5
    lattice. Detailed balance holds for any pi, so `target_audit` checks
    the targets.
    """
    state, geom, hp = _toy_state(seed, n_subjects=1)
    rng = np.random.default_rng(seed + 1)

    def start_1d(rng):
        return np.array([[rng.uniform(0.85, 1.15), rng.uniform(-0.5, 0.5)], [0.0, 1.0]])

    lattice = Lattice(shape=(5, 5), spacing=np.array([1.0, 1.0]), origin=np.array([-2.0, -2.0]))
    prior_2d = TransformPrior(0.5, 0.5, sigma_s_matrix(lattice.locations()))

    def start_2d(rng):
        return lie_exp(0.2 * rng.standard_normal(6))

    gaps = {
        "detailed_balance.max_gap_1d": _balance_gap(partial(forward_target, state, geom, hp),
                                                    start_1d, n_pairs, rng, 0.02 * np.eye(2)),
        "detailed_balance.max_gap_2d": _balance_gap(
            lambda rows, h: (np.ones(1, dtype=bool), None, prior_2d.log_density(h), ()),
            start_2d, n_pairs, rng, 0.02 * np.eye(6)),
    }
    return [_check(name, gap, tol) for name, gap in gaps.items()]


def nngp_oracle_audit(seed=0):
    """NNGP joint density vs dense GP; NNGP conditional means vs dense Kriging."""
    results = []
    rng = np.random.default_rng(seed)

    # Full-neighborhood NNGP equals the dense joint density (V <= 64).
    worst = 0.0
    cases = [
        make_lattice_1d(0.0, 24.0, 1.0),                                # V = 25
        Lattice(shape=(6, 6), spacing=np.array([1.0, 1.0]), origin=np.zeros(2)),
        Lattice(shape=(8, 8), spacing=np.array([1.0, 1.0]), origin=np.zeros(2)),
    ]
    for lattice in cases:
        locs = lattice.locations()
        v = locs.shape[0]
        params = CovarianceParams(alpha=1.7, rho=0.6)
        nsets = build_ordered_neighbor_sets(lattice, v - 1)
        x = rng.normal(size=v)
        dense = dense_gp_log_density(x, locs, params)
        nngp = nngp_log_density(x, nsets, locs, params)
        worst = max(worst, abs(nngp - dense))
    results.append(_check("oracle.full_neighborhood_joint", worst, 1e-8))

    # m=10 on a 12x12 lattice: transformed-site conditional means vs dense
    # Kriging. rho pinned at the decay prior's upper bound (strongest
    # screening the model can reach); the bound is scale-free in alpha.
    lattice = Lattice(shape=(12, 12), spacing=np.array([1.0, 1.0]), origin=np.zeros(2))
    locs = lattice.locations()
    params = CovarianceParams(alpha=1.0, rho=3.0)
    chol = np.linalg.cholesky(cov_matrix(locs, locs, params)
                              + 1e-10 * np.eye(locs.shape[0]))
    x = chol @ rng.standard_normal(locs.shape[0])
    t = affine_compose(AffineTransform.translation([0.37, -0.21]),
                       AffineTransform.rotation(0.05))
    targets = affine_apply(t, locs)
    lib = build_neighbor_library(lattice, margin=3, m=10)
    nbr = lookup_neighbors(targets, lib)
    b, f = batched_nngp_weights(targets, nbr, locs, params)
    nngp_means = conditional_means(x, nbr, b)
    p, _ = dense_kriging(locs, targets, params)
    dense_means = p @ x
    rel = np.max(np.abs(nngp_means - dense_means)) / np.max(np.abs(dense_means))
    results.append(_check("oracle.m10_conditional_means_rel", rel, 1e-3))
    results.append(_check("oracle.pattern_weights", pattern_weights_gap(), 1e-12))
    return results


def weights_gap(weights, oracle, alpha):
    """Gap between two (B, F) pairs: |dB| relative to max |B|, |dF| to alpha.

    F is compared against alpha, its upper bound: near a lattice site F
    falls to ~JITTER * alpha, where cancellation costs every way of
    computing it its relative accuracy.
    """
    (b, f), (ob, of) = weights, oracle
    return max(np.max(np.abs(b - ob)) / max(np.max(np.abs(ob)), 1.0e-300),
               np.max(np.abs(f - of)) / alpha)


def pattern_weights_gap():
    """Pattern-cache (B, F) vs batched_nngp_weights, worst over all cases.

    Covers template sites given their predecessors, weighed once per
    predecessor pattern and gathered by site (the first m rows are padded),
    and transformed sites, some in the margin, and every enlarged-lattice
    site, which puts targets exactly on the template's border sites and in
    the margin; on the cosine and indicator 1D lattices (the indicator's fine
    spacing over [-5, 5] is where squared distances formed as
    |s|^2 + |t|^2 - 2 s.t lose digits), on a 2D lattice with anisotropic
    spacing and an offset origin, and on a 6-site 1D lattice at m = 10 > V,
    whose rows are V wide and whose every template row is padded; at several
    (alpha, rho).
    """
    cases = [
        (make_lattice_1d(-4.0, 4.0, 0.1), 5, 10,
         AffineTransform.from_parts(np.array([[1.05]]), np.array([0.3]))),
        (make_lattice_1d(-5.0, 5.0, 0.05), 40, 10,
         AffineTransform.from_parts(np.array([[0.97]]), np.array([-0.4]))),
        (Lattice(shape=(9, 13), spacing=np.array([0.7, 1.3]), origin=np.array([-2.0, 0.5])), 3,
         10, affine_compose(AffineTransform.translation([0.9, -1.1]),
                            AffineTransform.rotation(0.2))),
        (make_lattice_1d(0.0, 5.0, 1.0), 3, 10,
         AffineTransform.from_parts(np.array([[1.1]]), np.array([-0.35]))),
    ]
    worst = 0.0
    for lattice, margin, m, t in cases:
        geom = build_geometry(lattice, Hyperparams(m=m), margin)
        locs, lib, pre = geom.locations, geom.library, geom.predecessors
        # Columns past min(m, V) are padding in every row.
        nsets = geom.neighbor_sets[:, :pre.nbr.shape[1]]
        targets = np.concatenate([affine_apply(t, locs), lib.enlarged.locations()])
        entries = lookup_entries(targets, lib)
        dist = neighbor_distances(targets, lib.neighbor_indices[entries], locs)
        for alpha, rho in ((1.7, 0.05), (0.4, 1.5), (2.5, 3.0)):
            params = CovarianceParams(alpha, rho)
            factor = kriging_factor(lib, rho)
            b, f = predecessor_weights(pre, rho, alpha)
            worst = max(
                worst,
                weights_gap((b[pre.ids], f[pre.ids]),
                            batched_nngp_weights(locs, nsets, locs, params), alpha),
                weights_gap(library_weights(dist, lib.pattern_ids[entries], lib, factor, alpha),
                            batched_nngp_weights(targets, lib.neighbor_indices[entries],
                                                 locs, params), alpha))
    return worst


def geometry_audit(seed=0):
    results = []
    rng = np.random.default_rng(seed)

    # exp/log roundtrip: 1000 random deltas with ||delta|| <= 1.
    worst = 0.0
    for _ in range(1000):
        dim = 2 if rng.uniform() < 0.7 else 1
        n = dim * (dim + 1)
        delta = rng.standard_normal(n)
        delta *= rng.uniform(0, 1) / max(np.linalg.norm(delta), 1e-12)
        worst = max(worst, float(np.max(np.abs(lie_log(lie_exp(delta)) - delta))))
    results.append(_check("geometry.exp_log_roundtrip", worst, 1e-9))

    # Karcher fixed points.
    t = affine_compose(AffineTransform.rotation(0.2), AffineTransform.translation([0.5, -0.3]))
    gap_single = float(np.linalg.norm(karcher_mean([t]) - t))
    pair = [AffineTransform.translation([1.0, 0.0]), AffineTransform.translation([-1.0, 0.0])]
    gap_pair = float(np.linalg.norm(karcher_mean(pair) - np.eye(3)))
    results.append(_check("geometry.karcher_fixed_points", max(gap_single, gap_pair), 1e-10))

    # The records of a short real chain, started off forward Karcher mean
    # identity, are standardized: forward Karcher mean identity, mean beta 1,
    # every H_T H_Tr and beta_i X as in the state.
    spec = ScenarioSpec(scenario="indicator", n_subjects=3, seed=3)
    maps, _ = gen_indicator_curves(spec)
    cfg = RunConfig(total=6, burn_in=5, thin=1, seed=5,
                    a0_alpha=0.2, b0_alpha=0.1, init_iters=3)
    state = initialize(maps, cfg)
    state.T = affine_compose(state.T, AffineTransform.translation([0.3]))
    chain = Chain(maps, cfg, initial_state=state)
    worst = 0.0
    for _ in range(cfg.total):
        chain.sweep()
        (x, h_fwd, h_rev, betas, *_), *_ = chain.record()
        mean = karcher_mean(h_fwd)
        st = chain.state
        worst = max(worst, float(np.linalg.norm(lie_log(mean))), abs(np.mean(betas) - 1.0),
                    *(max(np.max(np.abs(f @ r - t @ t_r)),
                          np.max(np.abs(beta * x - raw_beta * st.X)))
                      for f, r, beta, t, t_r, raw_beta
                      in zip(h_fwd, h_rev, betas, st.T, st.T_r, st.beta)))
    results.append(_check("geometry.recorded_draws_standardized", worst, 1e-8))
    return results


def run_all_audits(seed=0):
    results = []
    results.extend(conjugacy_audit(seed))
    results.extend(target_audit(seed))
    results.extend(detailed_balance_audit(100, seed))
    results.extend(nngp_oracle_audit(seed))
    results.extend(geometry_audit(seed))
    return results, all(r["passed"] for r in results)
