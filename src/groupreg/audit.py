"""Invariant audits: conjugacy, detailed balance, NNGP oracles, geometry.

Each audit returns a list of {name, value, tol, passed} dicts; the CLI's
`audit` subcommand prints one line per check and exits 4 on any failure.
The same functions back the acceptance test suite.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import OutOfLibraryBounds
from .grids import ActivationMap, Lattice, make_lattice_1d
from .interp import interpolate
from .model import (Hyperparams, build_geometry, gibbs_log_posterior,
                    invgamma_logpdf, normal_logpdf)
from .sampler import (Chain, ChainState, SubjectState, alpha_conditional,
                      beta_sigma_conditional, forward_log_target, lie_mh_log_acceptance,
                      mvn_logpdf, refresh_subject_geometry, refresh_template_weights,
                      reverse_log_target, subject_geometry, template_conditional,
                      transformed_template_conditional)
from .spatial import (CovarianceParams, batched_nngp_weights, cov_matrix,
                      dense_gp_log_density, dense_kriging, lookup_neighbors,
                      nngp_log_density, conditional_means,
                      build_neighbor_library, build_ordered_neighbor_sets,
                      build_predecessor_patterns, kriging_factor, library_weights,
                      lookup_entries, predecessor_weights)
from .synth import ScenarioSpec, gen_indicator_curves
from .transforms import (AffineTransform, affine_apply, affine_compose,
                         affine_inverse, karcher_mean, lie_exp, lie_log,
                         proposal_jacobian)

_check = lambda name, value, tol: {"name": name, "value": float(value),
                                   "tol": float(tol), "passed": bool(value < tol)}


def _toy_state(seed=0, n_subjects=2):
    """V=4, N=2 1D instance with everything in general position."""
    rng = np.random.default_rng(seed)
    lattice = Lattice(shape=(4,), spacing=np.array([1.0]), origin=np.array([0.0]))
    hp = Hyperparams(lambda_r=1.2, m=2)
    geom = build_geometry(lattice, m=hp.m, margin=4)
    cov = CovarianceParams(alpha=1.3, rho=0.8)

    x = rng.normal(size=4)
    params = [(1.05, 0.3), (0.95, -0.2)][:n_subjects]
    blocks = []
    for scale, shift in params:
        t = AffineTransform.from_parts(np.array([[scale]]), np.array([shift]))
        t_r = affine_compose(affine_inverse(t),
                             AffineTransform.from_parts(np.array([[1.0]]),
                                                        np.array([rng.normal() * 0.05])))
        y = ActivationMap(lattice, rng.normal(size=4) + 1.0)
        blk = SubjectState(Y=y, T=t, T_r=t_r, beta=float(rng.uniform(0.8, 1.2)),
                           sigma2=float(rng.uniform(0.4, 0.9)),
                           XT=rng.normal(size=4))
        blocks.append(blk)
    state = ChainState(X=x, blocks=blocks, alpha=cov.alpha, rho=cov.rho)
    refresh_template_weights(state, geom)
    from .model import backward_values
    for blk in blocks:
        refresh_subject_geometry(blk, geom, state.factor, state.alpha)
        blk.Y_bw = backward_values(blk)
    return state, geom, hp


def band_to_dense(ab):
    """Symmetric dense matrix from LAPACK lower-band storage (Q[j + d, j] at [d, j])."""
    v = ab.shape[1]
    q = np.zeros((v, v))
    for d in range(ab.shape[0]):
        j = np.arange(v - d)
        q[j + d, j] = q[j, j + d] = ab[d, :v - d]
    return q


def _joint(state, geom, hp):
    return gibbs_log_posterior(state.X, state.blocks, state.cov, hp, geom)


def conjugacy_audit(seed=0, tol=1e-8):
    """Closed-form conditional log-ratios vs joint log-ratios, every conjugate update."""
    results = []
    state, geom, hp = _toy_state(seed)
    base = _joint(state, geom, hp)

    # X(T_i) element.
    blk = state.blocks[0]
    mean, var = transformed_template_conditional(blk, state.X)
    l = 2
    new_val = blk.XT[l] + 0.7
    closed = (normal_logpdf(new_val, mean[l], var[l])
              - normal_logpdf(blk.XT[l], mean[l], var[l]))
    old = blk.XT[l]
    blk.XT[l] = new_val
    joint = _joint(state, geom, hp) - base
    blk.XT[l] = old
    results.append(_check("conjugacy.XT_element", abs(closed - joint), tol))

    # X as one block: the joint's change under a whole-vector move is the
    # change of -1/2 x'Qx + b'x.
    ab, b = template_conditional(state, geom)
    q = band_to_dense(ab)
    x = state.X
    x_new = x + np.random.default_rng(seed + 2).normal(scale=0.5, size=x.size)
    closed = -0.5 * (x_new @ q @ x_new - x @ q @ x) + b @ (x_new - x)
    state.X = x_new
    joint = _joint(state, geom, hp) - base
    state.X = x
    results.append(_check("conjugacy.X_block", abs(closed - joint), tol))

    # beta (sigma^2 held fixed).
    blk = state.blocks[1]
    shape, rate, mu_n, lam_n = beta_sigma_conditional(blk, state.X, hp)
    new_beta = blk.beta + 0.3
    closed = (normal_logpdf(new_beta, mu_n, lam_n * blk.sigma2)
              - normal_logpdf(blk.beta, mu_n, lam_n * blk.sigma2))
    old = blk.beta
    blk.beta = new_beta
    joint = _joint(state, geom, hp) - base
    blk.beta = old
    results.append(_check("conjugacy.beta", abs(closed - joint), tol))

    # sigma^2 given beta: IG(shape + 1/2, rate + (beta - mu_n)^2 / (2 lam_n)).
    new_s2 = blk.sigma2 * 1.7
    shape_b, rate_b = shape + 0.5, rate + 0.5 * (blk.beta - mu_n) ** 2 / lam_n
    closed = (invgamma_logpdf(new_s2, shape_b, rate_b)
              - invgamma_logpdf(blk.sigma2, shape_b, rate_b))
    old = blk.sigma2
    blk.sigma2 = new_s2
    joint = _joint(state, geom, hp) - base
    results.append(_check("conjugacy.sigma2", abs(closed - joint), tol))

    # sigma^2 as the sampler draws it, beta marginalized: the joint's change
    # in sigma^2 at fixed beta is that of IG(sigma^2; shape, rate) times
    # N(beta; mu_n, lam_n sigma^2).
    closed = (invgamma_logpdf(new_s2, shape, rate) + normal_logpdf(blk.beta, mu_n, lam_n * new_s2)
              - invgamma_logpdf(old, shape, rate) - normal_logpdf(blk.beta, mu_n, lam_n * old))
    blk.sigma2 = old
    results.append(_check("conjugacy.sigma2_marginal", abs(closed - joint), tol))

    # alpha.
    shape, rate = alpha_conditional(state, geom, hp)
    new_alpha = state.alpha * 1.4
    closed = (invgamma_logpdf(new_alpha, shape, rate)
              - invgamma_logpdf(state.alpha, shape, rate))
    old_alpha = state.alpha
    state.alpha = new_alpha
    joint = _joint(state, geom, hp) - base
    state.alpha = old_alpha
    results.append(_check("conjugacy.alpha", abs(closed - joint), tol))
    return results


def _balance_gap(log_target, n_pairs, rng, prop_cov):
    """Worst gap between the two sides of detailed balance over random pairs.

    A pair whose log target raises OutOfLibraryBounds is not a valid pair
    and is replaced by another; any other error propagates.
    """
    worst = 0.0
    done = 0
    while done < n_pairs:
        scale = float(rng.uniform(0.85, 1.15))
        shift = float(rng.uniform(-0.5, 0.5))
        t_x = AffineTransform.from_parts(np.array([[scale]]), np.array([shift]))
        delta = 0.15 * rng.standard_normal(2)
        t_y = affine_compose(lie_exp(delta), t_x)
        try:
            lt_x, lt_y = log_target(t_x), log_target(t_y)
        except OutOfLibraryBounds:
            continue
        d_fwd = lie_log(affine_compose(t_y, affine_inverse(t_x)))
        d_rev = lie_log(affine_compose(t_x, affine_inverse(t_y)))
        la_xy = lie_mh_log_acceptance(lt_x, lt_y, d_fwd, d_rev, prop_cov)
        la_yx = lie_mh_log_acceptance(lt_y, lt_x, d_rev, d_fwd, prop_cov)
        lq_xy = mvn_logpdf(d_fwd, prop_cov) - np.log(proposal_jacobian(d_fwd))
        lq_yx = mvn_logpdf(d_rev, prop_cov) - np.log(proposal_jacobian(d_rev))
        lhs = la_xy + lt_x + lq_xy
        rhs = la_yx + lt_y + lq_yx
        worst = max(worst, abs(lhs - rhs))
        done += 1
    return worst


def detailed_balance_audit(n_pairs=100, seed=0, tol=1e-10):
    """Both sides of alpha(x->y) pi(x) q(y|x) = alpha(y->x) pi(y) q(x|y).

    Checked for the forward and the reverse transform update, each with the
    log target the sampler uses.
    """
    state, geom, hp = _toy_state(seed, n_subjects=1)
    blk = state.blocks[0]
    rng = np.random.default_rng(seed + 1)
    prop_cov = 0.02 * np.eye(2)

    def forward(t):
        weights = subject_geometry(t, geom, state.factor, state.alpha)[2:]
        return forward_log_target(t, blk.T_r, state.X, blk.XT, weights, geom, hp)

    def reverse(t_r):
        y_bw = interpolate(blk.Y, affine_apply(t_r, geom.locations))
        return reverse_log_target(t_r, blk.T, state.X, y_bw, blk.beta, blk.sigma2, geom, hp)

    gaps = {"detailed_balance.max_gap": _balance_gap(forward, n_pairs, rng, prop_cov),
            "detailed_balance.reverse_max_gap": _balance_gap(reverse, n_pairs, rng, prop_cov)}
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
        nsets = build_ordered_neighbor_sets(locs, v - 1)
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

    Covers template predecessor weights (the first m rows are padded) and
    library weights for transformed sites, some in the margin, and for every
    enlarged-lattice site, which puts targets exactly on the template's
    border sites and in the margin; on the cosine and indicator 1D lattices
    (the indicator's fine spacing over [-5, 5] is where squared distances
    formed as |s|^2 + |t|^2 - 2 s.t lose digits) and on a 2D lattice with
    anisotropic spacing and an offset origin; at several (alpha, rho).
    """
    cases = [
        (make_lattice_1d(-4.0, 4.0, 0.1), 5,
         AffineTransform.from_parts(np.array([[1.05]]), np.array([0.3]))),
        (make_lattice_1d(-5.0, 5.0, 0.05), 40,
         AffineTransform.from_parts(np.array([[0.97]]), np.array([-0.4]))),
        (Lattice(shape=(9, 13), spacing=np.array([0.7, 1.3]), origin=np.array([-2.0, 0.5])), 3,
         affine_compose(AffineTransform.translation([0.9, -1.1]),
                        AffineTransform.rotation(0.2))),
    ]
    worst = 0.0
    for lattice, margin, t in cases:
        locs = lattice.locations()
        nsets = build_ordered_neighbor_sets(locs, 10)
        patterns = build_predecessor_patterns(lattice, nsets)
        lib = build_neighbor_library(lattice, margin, 10)
        targets = np.concatenate([affine_apply(t, locs), lib.enlarged.locations()])
        entries = lookup_entries(targets, lib)
        for alpha, rho in ((1.7, 0.05), (0.4, 1.5), (2.5, 3.0)):
            params = CovarianceParams(alpha, rho)
            factor = kriging_factor(lib, patterns, rho)
            worst = max(
                worst,
                weights_gap(predecessor_weights(patterns, factor, alpha),
                            batched_nngp_weights(locs, nsets, locs, params), alpha),
                weights_gap(library_weights(targets, entries, lib, locs, factor, alpha),
                            batched_nngp_weights(targets, lib.neighbor_indices[entries],
                                                 locs, params), alpha))
    return worst


def _fd_jacobian_oracle(delta, h=1e-5):
    """Finite-difference determinant of d' -> log(exp(-delta) exp(d')) at delta."""
    n = delta.size
    jac = np.empty((n, n))
    inv = lie_exp(-delta)
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        up = lie_log(affine_compose(inv, lie_exp(delta + e)))
        dn = lie_log(affine_compose(inv, lie_exp(delta - e)))
        jac[:, j] = (up - dn) / (2.0 * h)
    return 1.0 / abs(np.linalg.det(jac))


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
    gap_single = float(np.linalg.norm(karcher_mean([t]).matrix - t.matrix))
    pair = [AffineTransform.translation([1.0, 0.0]), AffineTransform.translation([-1.0, 0.0])]
    gap_pair = float(np.linalg.norm(karcher_mean(pair).matrix - np.eye(3)))
    results.append(_check("geometry.karcher_fixed_points", max(gap_single, gap_pair), 1e-10))

    # Proposal Jacobian vs finite-difference volume oracle (2% relative).
    worst = 0.0
    for _ in range(20):
        dim = 2 if rng.uniform() < 0.5 else 1
        delta = 0.4 * rng.standard_normal(dim * (dim + 1))
        j_formula = proposal_jacobian(delta)
        j_fd = _fd_jacobian_oracle(delta)
        worst = max(worst, abs(j_formula - j_fd) / abs(j_fd))
    results.append(_check("geometry.jacobian_vs_fd_oracle", worst, 0.02))

    # Standardization invariant over a short real chain.
    spec = ScenarioSpec(scenario="indicator", n_subjects=3, seed=3)
    maps, _ = gen_indicator_curves(spec)
    cfg = RunConfig(total=6, burn_in=5, thin=1, margin=40, seed=5,
                    a0_alpha=0.2, b0_alpha=0.1, init_iters=3)
    chain = Chain(maps, cfg)
    worst = 0.0
    for _ in range(cfg.total):
        chain.sweep()
        mean = karcher_mean([blk.T for blk in chain.state.blocks])
        worst = max(worst, float(np.linalg.norm(lie_log(mean))))
    results.append(_check("geometry.post_sweep_mean_identity", worst, 1e-8))
    return results


def run_all_audits(seed=0):
    results = []
    results.extend(conjugacy_audit(seed))
    results.extend(detailed_balance_audit(100, seed))
    results.extend(nngp_oracle_audit(seed))
    results.extend(geometry_audit(seed))
    return results, all(r["passed"] for r in results)
