"""Conventional one-directional kernel-template model, for comparison.

Generative model: Y_i(s_v) = X(T_i(s_v)) + sigma_i eps with the template
parameterized as X(s) = sum_p K(s, s_p~) w(p), K a Gaussian kernel of width
tau = KERNEL_WIDTH, landmarks on every LANDMARK_STRIDE-th lattice site per
axis, and priors w ~ N(0, K_gram), sigma_i^2 ~ InvGamma(a0, a1). The width
and the stride are fixed, not config keys. tau is in physical units, so it
spans 1.5 grid steps on the glyph lattice, 15 on the cosine curves and 30 on
the indicator curves. Transforms use the same affine class and marginal-t
prior as the symmetric model so the comparison isolates the symmetric-GP
contribution. No reverse transforms, no intensity scale beta, no
inverse-consistency penalty.

Sampling: `ConventionalChain`, run by the symmetric model's loop
(`sampler.Chain.run`). It holds the T_i as an (N, d + 1, d + 1) stack of
homogeneous matrices and the sigma_i^2 as an (N,) array, as the symmetric
chain does. Each sweep is conjugate Gibbs for w and for all sigma_i^2 (one
gamma draw), and moves every T_i by the symmetric model's Lie-group
Metropolis step (`sampler.lie_mh_step`, with its closed-form Hastings term
and one `AdaptiveProposal` over the subjects), one call for all subjects:
given w and the sigma_i^2 the T_i are independent, so their kernel designs
(`kernel_designs`) at the proposed sites and their log targets are computed
stacked, by `conventional_target`. It evaluates the prior of the current
T_i and of the proposals in one stacked call, and reads the current T_i's
designs from those the chain keeps; an accept writes the proposal's design
there. The audit calls the same function and the chain's own conjugate
conditionals, and checks them against the model's joint log density,
`conventional_log_joint(chain)`, which reads no cache of the chain. K^-1
and the kernel design at the lattice sites are computed once per chain.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import IllConditioned
from .grids import ActivationMap, common_lattice
from .interp import Warp
from .model import TransformPrior, invgamma_logpdf, sigma_s_matrix
from .sampler import AdaptiveProposal, Chain, coarse_grid, fit_transforms, lie_mh_step, row_dot
from .transforms import affine_apply, affine_inverse, apply_stack

KERNEL_JITTER = 1e-8
KERNEL_WIDTH = 1.5      # tau
LANDMARK_STRIDE = 2


def gauss_kernel(a, b):
    """K(s, t) = exp(-||s - t||^2 / tau^2) between location stacks, the squared
    distances summed axis by axis over (len(a), len(b)) arrays."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d2 = sum((a[:, k, None] - b[None, :, k]) ** 2 for k in range(a.shape[1]))
    return np.exp(-d2 / KERNEL_WIDTH ** 2)


def landmark_lattice(lattice, stride):
    """Landmarks on every `stride`-th lattice site per axis."""
    locs = lattice.locations().reshape(lattice.shape + (lattice.dim,))
    return locs[(slice(None, None, stride),) * lattice.dim].reshape(-1, lattice.dim)


def kernel_gram(landmarks):
    """Cholesky factor of the landmark Gram matrix K (jittered), and K^-1."""
    k = gauss_kernel(landmarks, landmarks)
    k[np.diag_indices_from(k)] += KERNEL_JITTER
    try:
        chol = np.linalg.cholesky(k)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned("kernel Gram matrix not PD after jitter") from exc
    eye = np.eye(k.shape[0])
    return chol, np.linalg.solve(chol.T, np.linalg.solve(chol, eye))


def conventional_w_conditional(phis, ys, sigma2s, k_inv):
    """Precision and mean of w | rest: K^{-1} + sum Phi^T Phi / sigma^2."""
    prec = k_inv.copy()
    lin = np.zeros(k_inv.shape[0])
    for phi, y, s2 in zip(phis, ys, sigma2s):
        prec += phi.T @ phi / s2
        lin += phi.T @ y / s2
    chol = np.linalg.cholesky(0.5 * (prec + prec.T))
    mean = np.linalg.solve(chol.T, np.linalg.solve(chol, lin))
    return prec, chol, mean


def conventional_sigma2_conditional(y, phi, w, hp):
    """Shape and rate of sigma^2 | rest ~ IG(a0 + V/2, a1 + |Y - Phi w|^2 / 2), for
    one subject's map y (V,) and kernel design phi (V, L), or for stacks of them."""
    r = y - phi @ w
    return (hp.a0_sigma + y.shape[-1] / 2.0,
            hp.a1_sigma + 0.5 * row_dot(r, r))


def kernel_designs(h, locs, landmarks):
    """The (n, V, L) kernel designs at T(S) of an (n, d + 1, d + 1) stack of T,
    S the sites `locs` (V, d)."""
    pts = apply_stack(h, locs)
    n, v, d = pts.shape
    return gauss_kernel(pts.reshape(-1, d), landmarks).reshape(n, v, -1)


def conventional_log_target(log_prior, phi, y, w, sigma2):
    """T-dependent part of the conventional joint, per subject: prior and
    Gaussian log-likelihood.

    log_prior (n,) is the `TransformPrior` log density of the subjects' T,
    `phi` (n, V, L) the kernel designs at their transformed sites T(S), y
    (n, V) their maps and sigma2 (n,) their noise variances. Returns (n,).
    `conventional_target` calls it.
    """
    r = y - phi @ w
    return log_prior - 0.5 * row_dot(r, r) / sigma2


def conventional_target(chain, rows, h):
    """The T_i target of every current T_i of a `ConventionalChain` and of the
    proposals h for the subjects `rows`, in the (inside, log_old, log_new,
    payload) form that `sampler.lie_mh_step` takes: every proposal is
    inside, and the payload is the proposals' kernel designs. One prior call
    covers the current T_i and the proposals; the current likelihood reads
    the chain's designs."""
    n = len(chain.ts)
    phi = kernel_designs(h, chain.locs, chain.landmarks)
    log_prior = chain.prior.log_density(np.concatenate([chain.ts, h]))
    return (np.ones(rows.size, dtype=bool),
            conventional_log_target(log_prior[:n], chain.phis, chain.ys, chain.w, chain.sigma2),
            conventional_log_target(log_prior[n:], phi, chain.ys[rows], chain.w,
                                    chain.sigma2[rows]),
            (phi,))


def conventional_log_joint(chain):
    """Log joint density of the conventional model at a `ConventionalChain`'s
    state, up to a constant.

    w ~ N(0, K_gram); per subject, T_i from the chain's prior,
    sigma_i^2 ~ InvGamma(a0_sigma, a1_sigma) of its config and
    Y_i ~ N(Phi(T_i) w, sigma_i^2 I). Reads the chain's ts, w, sigma2,
    maps, landmarks, prior and config, and none of its caches: the Gram
    factor and each Phi(T_i) are computed here. The audit checks the
    conjugate steps and the T_i target against this one's differences.
    """
    w, hp = chain.w, chain.config
    gram_chol, _ = kernel_gram(chain.landmarks)
    half = np.linalg.solve(gram_chol, w)
    total = -0.5 * float(half @ half) - float(np.sum(np.log(np.diag(gram_chol))))
    for amap, t, s2 in zip(chain.maps, chain.ts, chain.sigma2):
        r = (amap.values
             - gauss_kernel(affine_apply(t, amap.lattice.locations()), chain.landmarks) @ w)
        total += (chain.prior.log_density(t[None])[0] - 0.5 * float(r @ r) / s2
                  - 0.5 * r.size * np.log(2.0 * np.pi * s2)
                  + invgamma_logpdf(s2, hp.a0_sigma, hp.a1_sigma))
    return float(total)


class ConventionalChain(Chain):
    """MCMC for the conventional model; `Chain.run` and `Chain.sweep` drive it.

    A sweep draws w | rest, then each sigma_i^2 | rest, then each T_i, all
    from the chain's one generator, the T_i by `sampler.lie_mh_step` of
    `conventional_target`, which reads the chain's ts, phis, ys, w, sigma2,
    prior, locs and landmarks. Of these, phis is a cache of the ts, and so
    is k_inv of the landmarks; the model's joint, `conventional_log_joint`,
    reads neither. The records share the symmetric model's layout: the
    template is evaluated on the map lattice and stored as X, the forward
    transforms are the T_i as drawn (not standardized to Karcher mean
    identity, as the symmetric records are), reverse transforms are
    identity, beta is 1, alpha and rho are NaN, and the header's lambda_r is
    0, as the model has no inverse-consistency penalty.

    Set-up fits each T_i to the mean map in one pass of the symmetric
    set-up's fit, `sampler.fit_transforms`: the best of the identity and the
    coarse grid, refined by Levenberg-Marquardt. One `Warp` of the mean map,
    which samples it at T(S) for S the lattice sites, serves every subject,
    so each grid candidate is sampled once for all of them, and so is each
    round of their lock-step LM fits. Then w starts at its conditional mean
    with every sigma_i^2 at 1.
    """

    def __init__(self, maps, config):
        self.start(maps, config, 0.0)
        lattice = self.lattice
        n, d = len(maps), lattice.dim
        self.locs = lattice.locations()
        self.landmarks = landmark_lattice(lattice, LANDMARK_STRIDE)
        _, self.k_inv = kernel_gram(self.landmarks)
        self.design = gauss_kernel(self.locs, self.landmarks)
        self.prior = TransformPrior(config.a_T, config.b_T, sigma_s_matrix(self.locs))
        self.ys = np.stack([m.values for m in maps])
        self.proposals = {"forward": AdaptiveProposal(n, d * (d + 1))}

        # Initialization: coarse-fit transforms against the mean map, ridge w.
        warp = Warp(ActivationMap(lattice, np.mean(self.ys, axis=0)))
        self.ts = fit_transforms(warp, self.ys, np.ones(n), np.array([np.eye(d + 1)] * n),
                                 coarse_grid(lattice))
        self.phis = kernel_designs(self.ts, self.locs, self.landmarks)
        _, _, self.w = conventional_w_conditional(self.phis, self.ys, np.ones(n), self.k_inv)
        self.sigma2 = np.maximum(np.mean((self.ys - self.phis @ self.w) ** 2, axis=1), 1e-12)

    def updates(self):
        # w | rest: conjugate multivariate normal.
        _, chol, mean = conventional_w_conditional(self.phis, self.ys, self.sigma2, self.k_inv)
        z = self.rng.standard_normal(mean.size)
        self.w = mean + np.linalg.solve(chol.T, z)
        # sigma_i^2 | rest, every subject in one draw, subject 0 first.
        shape, rate = conventional_sigma2_conditional(self.ys, self.phis, self.w, self.config)
        self.sigma2 = 1.0 / self.rng.gamma(shape=shape, scale=1.0 / rate)

        # T_i | rest: Lie-MH against the kernel-template likelihood, all subjects at once.
        lie_mh_step((self.ts, self.phis), partial(conventional_target, self),
                    self.proposals["forward"], self.rng)

    def record(self):
        n, d = len(self.maps), self.lattice.dim
        return (self.design @ self.w, self.ts.copy(),
                np.broadcast_to(np.eye(d + 1), (n, d + 1, d + 1)), np.ones(n),
                self.sigma2, np.nan, np.nan), None, None

    def snapshot(self):
        return {"iteration": self.iteration, "sigma2": self.sigma2.tolist(),
                "transforms": self.ts.tolist()}

    def model_diagnostics(self, extras):
        return {"sigma2_last": self.sigma2.tolist(), "n_landmarks": int(self.landmarks.shape[0])}


def inverse_warp(maps, transforms):
    """Pull each subject map back to template space with T_i^{-1}.

    Given the model convention Y_i ~ X(T_i(.)), the template-space version of
    Y_i is Y_i(T_i^{-1}(.)); each output map is Y_i resampled at the
    inverse-transformed sites T_i^{-1}(S), every map by one call of
    `Warp(maps)`. Returns (warped maps, across-subject mean map).
    """
    common_lattice(maps)   # raises DegenerateInput for maps that cannot be warped together
    values = Warp(maps)(np.array([affine_inverse(t) for t in transforms]))
    warped = [amap.with_values(v) for amap, v in zip(maps, values)]
    mean = warped[0].with_values(np.mean([m.values for m in warped], axis=0))
    return warped, mean
