"""Conventional one-directional kernel-template model, for comparison.

Generative model: Y_i(s_v) = X(T_i(s_v)) + sigma_i eps with the template
parameterized as X(s) = sum_p K(s, s_p~) w(p), K a Gaussian kernel of width
tau, landmarks on a (possibly coarser) sub-lattice, and priors
w ~ N(0, K_gram), sigma_i^2 ~ InvGamma(a0, a1). Transforms use the same
affine class and marginal-t prior as the symmetric model so the comparison
isolates the symmetric-GP contribution. No reverse transforms, no intensity
scale beta, no inverse-consistency penalty.

Sampling: conjugate Gibbs for w and sigma_i^2, and for T_i the symmetric
model's Lie-group Metropolis step (`sampler.lie_mh_step`, with its
closed-form Hastings term and Robbins-Monro adaptation).
"""

from __future__ import annotations

import time

import numpy as np

from .errors import IllConditioned
from .grids import ActivationMap, common_lattice
from .interp import interpolate
from .model import TransformPrior, invgamma_logpdf, sigma_s_matrix
from .sampler import AdaptiveProposal, fit_affine, lie_mh_step, substream
from .store import SampleStore
from .transforms import AffineTransform, affine_apply, affine_inverse

KERNEL_JITTER = 1e-8


def gauss_kernel(a, b, tau):
    """K(s, t) = exp(-||s - t||^2 / tau^2) between location stacks."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return np.exp(-d2 / tau ** 2)


def landmark_lattice(lattice, stride):
    """Landmarks on every `stride`-th lattice site per axis."""
    locs = lattice.locations().reshape(lattice.shape + (lattice.dim,))
    if lattice.dim == 1:
        return locs[::stride].reshape(-1, 1)
    return locs[::stride, ::stride].reshape(-1, 2)


def _chol_gram(landmarks, tau):
    k = gauss_kernel(landmarks, landmarks, tau)
    k[np.diag_indices_from(k)] += KERNEL_JITTER
    try:
        return k, np.linalg.cholesky(k)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned("kernel Gram matrix not PD after jitter") from exc


def conventional_w_conditional(phis, ys, sigma2s, gram_chol):
    """Precision and mean of w | rest: K^{-1} + sum Phi^T Phi / sigma^2."""
    p = gram_chol.shape[0]
    eye = np.eye(p)
    k_inv = np.linalg.solve(gram_chol.T, np.linalg.solve(gram_chol, eye))
    prec = k_inv.copy()
    lin = np.zeros(p)
    for phi, y, s2 in zip(phis, ys, sigma2s):
        prec += phi.T @ phi / s2
        lin += phi.T @ y / s2
    chol = np.linalg.cholesky(0.5 * (prec + prec.T))
    mean = np.linalg.solve(chol.T, np.linalg.solve(chol, lin))
    return prec, chol, mean


def _phi_at(transform, locations, landmarks, tau):
    return gauss_kernel(affine_apply(transform, locations), landmarks, tau)


def conventional_log_target(t, phi, y, w, sigma2, prior):
    """T-dependent part of the conventional joint: prior and Gaussian log-likelihood.

    `phi` is the kernel design at the transformed sites T(S); `prior` is the
    `TransformPrior` of T.
    """
    r = y - phi @ w
    return prior.log_density(t) - 0.5 * float(r @ r) / sigma2


def conventional_log_joint(maps, ts, w, sigma2s, landmarks, tau, gram_chol, hp, prior):
    """Log joint density of the conventional model, up to a constant.

    w ~ N(0, K_gram) with `gram_chol` its Cholesky factor; per subject, T_i
    from `prior`, sigma_i^2 ~ InvGamma(a0_sigma, a1_sigma) and
    Y_i ~ N(Phi(T_i) w, sigma_i^2 I). The audit checks the T_i target's
    differences against this one's.
    """
    half = np.linalg.solve(gram_chol, w)
    total = -0.5 * float(half @ half) - float(np.sum(np.log(np.diag(gram_chol))))
    for amap, t, s2 in zip(maps, ts, sigma2s):
        r = amap.values - _phi_at(t, amap.lattice.locations(), landmarks, tau) @ w
        total += (prior.log_density(t) - 0.5 * float(r @ r) / s2
                  - 0.5 * r.size * np.log(2.0 * np.pi * s2)
                  + invgamma_logpdf(s2, hp.a0_sigma, hp.a1_sigma))
    return float(total)


def fit_conventional(maps, config):
    """MCMC for the conventional model; returns (SampleStore, diagnostics).

    The store shares the symmetric model's record layout: the template is
    evaluated on the map lattice and stored as X, reverse transforms are
    identity and beta is 1; records are tagged with the model id in the
    header.
    """
    config.validate()
    hp = config.hyperparams()
    lattice = common_lattice(maps)
    locs = lattice.locations()
    v = lattice.n_sites
    n = len(maps)
    d = lattice.dim
    seed = config.seed

    landmarks = landmark_lattice(lattice, config.landmark_stride)
    gram, gram_chol = _chol_gram(landmarks, config.tau)
    prior = TransformPrior(hp.a_T, hp.b_T, sigma_s_matrix(locs))

    # Initialization: coarse-fit transforms against the mean map, ridge w.
    mean_map = ActivationMap(lattice, np.mean([m.values for m in maps], axis=0))
    ts = [fit_affine(maps[i], mean_map, 1.0, AffineTransform.identity(d), coarse=True)
          for i in range(n)]
    phis = [_phi_at(t, locs, landmarks, config.tau) for t in ts]
    sigma2s = [1.0] * n
    _, chol, w = conventional_w_conditional(phis, [m.values for m in maps],
                                            sigma2s, gram_chol)
    for i in range(n):
        resid = maps[i].values - phis[i] @ w
        sigma2s[i] = max(float(np.mean(resid ** 2)), 1e-12)

    adapt = [AdaptiveProposal(d * (d + 1)) for _ in range(n)]
    ident = np.eye(d + 1)

    kept_x, kept_h, kept_s2 = [], [], []
    t_start = time.perf_counter()
    for it in range(config.total):
        if it >= config.burn_in:
            for rec in adapt:
                rec.frozen = True
        # w | rest: conjugate multivariate normal.
        rng = substream(seed, it, 0)
        _, chol, mean = conventional_w_conditional(
            phis, [m.values for m in maps], sigma2s, gram_chol)
        w = mean + np.linalg.solve(chol.T, rng.standard_normal(w.size))
        # sigma_i^2 | rest.
        for i in range(n):
            rng_i = substream(seed, it, 1, i)
            resid = maps[i].values - phis[i] @ w
            rate = hp.a1_sigma + 0.5 * float(resid @ resid)
            sigma2s[i] = 1.0 / rng_i.gamma(shape=hp.a0_sigma + v / 2.0,
                                           scale=1.0 / rate)
        # T_i | rest: Lie-MH against the kernel-template likelihood.
        for i in range(n):
            y, s2 = maps[i].values, sigma2s[i]

            def target(t):
                phi = _phi_at(t, locs, landmarks, config.tau)
                return conventional_log_target(t, phi, y, w, s2, prior), phi

            log_old = conventional_log_target(ts[i], phis[i], y, w, s2, prior)
            step = lie_mh_step(ts[i], log_old, target, adapt[i], substream(seed, it, 2, i))
            if step is not None:
                ts[i], phis[i] = step

        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            kept_x.append(gauss_kernel(locs, landmarks, config.tau) @ w)
            kept_h.append(np.stack([t.matrix for t in ts]))
            kept_s2.append(list(sigma2s))
    runtime = time.perf_counter() - t_start

    s = len(kept_x)
    meta = {
        "model": "conventional",
        "seed": seed,
        "config_hash": config.config_hash(),
        "lambda_r": 0.0,
        "dim": d,
        "shape": list(lattice.shape),
        "spacing": [float(x) for x in lattice.spacing],
        "origin": [float(x) for x in lattice.origin],
        "n_subjects": n,
    }
    store = SampleStore(
        meta=meta,
        X=np.asarray(kept_x),
        H_fwd=np.asarray(kept_h),
        H_rev=np.broadcast_to(ident, (s, n, d + 1, d + 1)).copy(),
        beta=np.ones((s, n)),
        sigma2=np.asarray(kept_s2, dtype=float),
        alpha=np.full(s, np.nan),
        rho=np.full(s, np.nan),
    )
    diagnostics = {
        "runtime_seconds": runtime,
        "n_samples": s,
        "forward_acceptance": [r.acceptance_rate() for r in adapt],
        "forward_acceptance_post_burnin": [r.acceptance_rate(post_only=True)
                                           for r in adapt],
        "rejected_out_of_library": [r.rejected_oob for r in adapt],
        "rejected_no_real_log": [r.rejected_nolog for r in adapt],
        "sigma2_last": list(sigma2s),
        "n_landmarks": int(landmarks.shape[0]),
    }
    return store, diagnostics


def inverse_warp(maps, transforms):
    """Pull each subject map back to template space with T_i^{-1}.

    Given the model convention Y_i ~ X(T_i(.)), the template-space version of
    Y_i is Y_i(T_i^{-1}(.)); each output map is Y_i resampled at the
    inverse-transformed sites. Returns (warped maps, across-subject mean map).
    """
    common_lattice(maps)
    warped = []
    for amap, t in zip(maps, transforms):
        pts = affine_apply(affine_inverse(t), amap.lattice.locations())
        warped.append(amap.with_values(interpolate(amap, pts)))
    mean = warped[0].with_values(np.mean([m.values for m in warped], axis=0))
    return warped, mean
