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
homogeneous matrices, as the symmetric chain does. Each sweep is conjugate
Gibbs for w and sigma_i^2, and moves every T_i by the symmetric model's
Lie-group Metropolis step (`sampler.lie_mh_step`, with its closed-form
Hastings term and Robbins-Monro adaptation), one call for all subjects:
given w and the sigma_i^2 the T_i are independent, so their kernel designs
at the proposed sites and their log targets are computed stacked. K^-1 and
the kernel design at the lattice sites are computed once per chain.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditioned
from .grids import ActivationMap, common_lattice
from .interp import Warp
from .model import TransformPrior, invgamma_logpdf, sigma_s_matrix
from .sampler import AdaptiveProposal, Chain, coarse_grid, fit_affine, lie_mh_step
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
    if lattice.dim == 1:
        return locs[::stride].reshape(-1, 1)
    return locs[::stride, ::stride].reshape(-1, 2)


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
    """Shape and rate of sigma^2 | rest ~ IG(a0 + V/2, a1 + |Y - Phi w|^2 / 2)."""
    r = y - phi @ w
    return hp.a0_sigma + y.size / 2.0, hp.a1_sigma + 0.5 * float(r @ r)


def conventional_log_target(h, phi, y, w, sigma2, prior):
    """T-dependent part of the conventional joint, per subject: prior and
    Gaussian log-likelihood.

    h is an (n, d + 1, d + 1) stack of the subjects' T, `phi` (n, V, L) the
    kernel designs at their transformed sites T(S), y (n, V) their maps and
    sigma2 (n,) their noise variances; `prior` is the `TransformPrior` of T.
    Returns (n,).
    """
    r = y - phi @ w
    return prior.log_density(h) - 0.5 * (r[:, None, :] @ r[:, :, None])[:, 0, 0] / sigma2


def conventional_log_joint(maps, ts, w, sigma2s, landmarks, gram_chol, hp, prior):
    """Log joint density of the conventional model, up to a constant.

    w ~ N(0, K_gram) with `gram_chol` its Cholesky factor; per subject, T_i
    from `prior`, sigma_i^2 ~ InvGamma(a0_sigma, a1_sigma) and
    Y_i ~ N(Phi(T_i) w, sigma_i^2 I), with ts the T_i's homogeneous
    matrices. The audit checks the T_i target's differences against this
    one's.
    """
    half = np.linalg.solve(gram_chol, w)
    total = -0.5 * float(half @ half) - float(np.sum(np.log(np.diag(gram_chol))))
    for amap, t, s2 in zip(maps, ts, sigma2s):
        r = amap.values - gauss_kernel(affine_apply(t, amap.lattice.locations()), landmarks) @ w
        total += (prior.log_density(t[None])[0] - 0.5 * float(r @ r) / s2
                  - 0.5 * r.size * np.log(2.0 * np.pi * s2)
                  + invgamma_logpdf(s2, hp.a0_sigma, hp.a1_sigma))
    return float(total)


class ConventionalChain(Chain):
    """MCMC for the conventional model; `Chain.run` and `Chain.sweep` drive it.

    A sweep draws w | rest, then each sigma_i^2 | rest, then each T_i, all
    from the chain's one generator. The records share the symmetric model's
    layout: the template is evaluated on the map lattice and stored as X,
    reverse transforms are identity, beta is 1, alpha and rho are NaN, and
    the header's lambda_r is 0, as the model has no inverse-consistency
    penalty.
    """

    def __init__(self, maps, config):
        self.config = config
        self.lattice = lattice = common_lattice(maps)
        self.maps = list(maps)
        self.lambda_r = 0.0
        self.iteration = 0
        self.rng = np.random.default_rng(config.seed)
        n, d = len(maps), lattice.dim
        self.locs = lattice.locations()
        self.landmarks = landmark_lattice(lattice, LANDMARK_STRIDE)
        _, self.k_inv = kernel_gram(self.landmarks)
        self.design = gauss_kernel(self.locs, self.landmarks)
        self.prior = TransformPrior(config.a_T, config.b_T, sigma_s_matrix(self.locs))
        self.ys = np.stack([m.values for m in maps])
        self.proposals = {"forward": [AdaptiveProposal(d * (d + 1)) for _ in range(n)]}

        # Initialization: coarse-fit transforms against the mean map, ridge w.
        mean_map = ActivationMap(lattice, np.mean(self.ys, axis=0))
        grid = coarse_grid(lattice)
        self.ts = np.array([fit_affine(m, mean_map, 1.0, np.eye(d + 1), grid) for m in maps])
        self.phis = self.designs(self.ts)
        _, _, self.w = conventional_w_conditional(self.phis, self.ys, [1.0] * n, self.k_inv)
        self.sigma2s = [max(float(np.mean((y - phi @ self.w) ** 2)), 1e-12)
                        for y, phi in zip(self.ys, self.phis)]

    def updates(self):
        # w | rest: conjugate multivariate normal.
        _, chol, mean = conventional_w_conditional(self.phis, self.ys, self.sigma2s, self.k_inv)
        z = self.rng.standard_normal(mean.size)
        self.w = w = mean + np.linalg.solve(chol.T, z)
        # sigma_i^2 | rest.
        for i, (y, phi) in enumerate(zip(self.ys, self.phis)):
            shape, rate = conventional_sigma2_conditional(y, phi, w, self.config)
            self.sigma2s[i] = 1.0 / self.rng.gamma(shape=shape, scale=1.0 / rate)
        # T_i | rest: Lie-MH against the kernel-template likelihood, all subjects at once.
        sigma2s = np.array(self.sigma2s)

        def target(rows, proposals):
            phi = self.designs(proposals)
            return (np.ones(rows.size, dtype=bool),
                    conventional_log_target(proposals, phi, self.ys[rows], w, sigma2s[rows],
                                            self.prior),
                    (phi,))

        log_old = conventional_log_target(self.ts, self.phis, self.ys, w, sigma2s, self.prior)
        accepted, h_new, phi = lie_mh_step(self.ts, log_old, target,
                                           self.proposals["forward"], self.rng)
        self.ts[accepted] = h_new
        if phi:
            self.phis[accepted] = phi[0]

    def designs(self, h):
        """The (n, V, L) kernel designs at T(S) of an (n, d + 1, d + 1) stack of T."""
        locs = apply_stack(h, self.locs)
        n, v, d = locs.shape
        return gauss_kernel(locs.reshape(-1, d), self.landmarks).reshape(n, v, -1)

    def record(self):
        n, d = len(self.maps), self.lattice.dim
        return (self.design @ self.w, self.ts.copy(),
                np.broadcast_to(np.eye(d + 1), (n, d + 1, d + 1)), np.ones(n),
                list(self.sigma2s), np.nan, np.nan), None

    def snapshot(self):
        return {"iteration": self.iteration, "sigma2": list(self.sigma2s),
                "transforms": self.ts.tolist()}

    def model_diagnostics(self, extras):
        return {"sigma2_last": list(self.sigma2s), "n_landmarks": int(self.landmarks.shape[0])}


def inverse_warp(maps, transforms):
    """Pull each subject map back to template space with T_i^{-1}.

    Given the model convention Y_i ~ X(T_i(.)), the template-space version of
    Y_i is Y_i(T_i^{-1}(.)); each output map is Y_i resampled at the
    inverse-transformed sites. Returns (warped maps, across-subject mean map).
    """
    common_lattice(maps)
    warped = []
    for amap, t in zip(maps, transforms):
        warp = Warp(amap, amap.lattice.locations())
        warped.append(amap.with_values(warp(affine_inverse(t))))
    mean = warped[0].with_values(np.mean([m.values for m in warped], axis=0))
    return warped, mean
