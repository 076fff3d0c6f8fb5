"""The generalized-Bayes registration model.

Symmetric bi-directional loss, transform priors (multivariate t from the
gamma-marginalized normal), the joint Gibbs-posterior log density over all
latent quantities, and WAIC.

Weighting convention: the exponentiated loss carries a factor 1/2 on each
sum-of-squares term, exp(-||.||^2 / (2 sigma^2)), so the closed-form Gibbs
conditionals (precision beta^2/sigma^2 for transformed-template values,
inverse-gamma shape a0+V for sigma^2) hold exactly. The Frobenius penalty
terms enter with weight lambda_r as written. lambda_0 acts as a prior
precision for beta (the only dimensionally coherent reading of the closed-form
beta update), so beta | sigma^2 ~ N(mu0, sigma^2 / lambda0).

The joint log density and the pointwise log-likelihood read a chain state
(`sampler.ChainState`): per-subject fields stacked over subjects, one (N, V)
or (N,) array each, the transforms as (N, d + 1, d + 1) stacks of
homogeneous matrices, and the maps as a length-N list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateVariance, ValidationError
from .grids import Lattice
from .interp import Warp
from .spatial import (NeighborLibrary, PredecessorPatterns, batched_nngp_weights,
                      build_neighbor_library, build_ordered_neighbor_sets,
                      build_predecessor_patterns, lookup_neighbors,
                      nngp_log_density_from_weights)
from .transforms import apply_stack, composition_identity_gap


@dataclass(frozen=True)
class Hyperparams:
    """Prior hyperparameters and the inverse-consistency penalty weight."""

    lambda_r: float = 1.0
    a_T: float = 0.1
    b_T: float = 0.1
    a_Tr: float = 0.1
    b_Tr: float = 0.1
    a0_alpha: float = 2.0
    b0_alpha: float = 1.0
    rho_lower: float = 0.0
    rho_upper: float = 3.0
    mu0: float = 1.0
    lambda0: float = 1.0
    a0_sigma: float = 2.0
    a1_sigma: float = 1.0
    m: int = 10

    def __post_init__(self):
        for f in fields(self):      # a subclass's fields too, and each value of a tuple
            values = np.ravel(getattr(self, f.name))
            if values.dtype.kind == "f" and not np.all(np.isfinite(values)):
                raise ValidationError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("a_T", "b_T", "a_Tr", "b_Tr", "a0_alpha", "b0_alpha",
                     "lambda0", "a0_sigma", "a1_sigma"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"hyperparameter {name} must be > 0")
        if not self.rho_lower < self.rho_upper:
            raise ValidationError("rho_lower < rho_upper is required")
        if self.lambda_r < 0:
            raise ValidationError("lambda_r must be >= 0")
        if self.m < 1:
            raise ValidationError("m must be >= 1")


def sigma_s_matrix(locations):
    """Coordinate Gram matrix of (s_1, ..., s_d, 1) rows over all sites."""
    locs = np.atleast_2d(np.asarray(locations, dtype=float))
    z = np.column_stack([locs, np.ones(locs.shape[0])])
    return z.T @ z


@dataclass(frozen=True, eq=False)
class TransformPrior:
    """Gamma-marginalized transform prior for one (a, b, Sigma_s).

    Marginalizing the N(M0, lambda_T^{-1} I (x) Sigma_s^{-1}) prior over
    lambda_T ~ Gamma(a, b) gives a multivariate t with 2a degrees of freedom,
    location identity and scale (b/a) I (x) Sigma_s^{-1}. The normalizing
    terms depend only on (a, b, Sigma_s) and are computed once, here;
    `log_density` evaluates the quadratic form blockwise (one Sigma_s block
    per output coordinate) to avoid the Kronecker product.
    """

    a: float
    b: float
    sigma_s: np.ndarray = field(repr=False)
    log_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        d = self.sigma_s.shape[0] - 1
        nu = 2.0 * self.a
        p = d * (d + 1)
        sign, logdet_s = np.linalg.slogdet(self.sigma_s)
        if sign <= 0:
            raise ValidationError("sigma_s must be positive definite")
        logdet_scale = p * np.log(self.b / self.a) - d * logdet_s
        object.__setattr__(self, "log_norm", float(
            math.lgamma((nu + p) / 2.0) - math.lgamma(nu / 2.0)
            - 0.5 * p * np.log(nu * np.pi) - 0.5 * logdet_scale))

    def log_density(self, h):
        """Log density of each matrix of an (n, d + 1, d + 1) stack of
        homogeneous matrices, (n,)."""
        n, d = len(h), h.shape[-1] - 1
        nu = 2.0 * self.a
        p = d * (d + 1)
        # rows of [A b] minus those of the identity: row k maps (s, 1) -> coord k
        dev = h[:, :-1] - np.eye(d, d + 1)
        # quad form under scale^{-1} = (a/b) I (x) Sigma_s, one (1, p) @ (p, 1)
        # product per matrix, so a row's value does not depend on n
        quad = (dev @ self.sigma_s).reshape(n, 1, p) @ dev.reshape(n, p, 1)
        return self.log_norm - 0.5 * (nu + p) * np.log1p((self.a / self.b) * quad[:, 0, 0] / nu)


@dataclass(frozen=True, eq=False)
class ModelGeometry:
    """Static per-run structures shared by density and sampler code.

    The lattice and its NNGP neighbor structures, and the forward and reverse
    transform priors, whose scale is the lattice's coordinate Gram matrix.
    """

    lattice: Lattice
    locations: np.ndarray = field(repr=False)
    neighbor_sets: np.ndarray = field(repr=False)   # (V, m) -1-padded, row-major order
    predecessor_patterns: PredecessorPatterns = field(repr=False)
    library: NeighborLibrary = field(repr=False)
    prior_T: TransformPrior = field(repr=False)
    prior_Tr: TransformPrior = field(repr=False)


def build_geometry(lattice, hp, margin):
    locs = lattice.locations()
    neighbor_sets = build_ordered_neighbor_sets(locs, hp.m)
    sigma_s = sigma_s_matrix(locs)
    return ModelGeometry(
        lattice=lattice,
        locations=locs,
        neighbor_sets=neighbor_sets,
        predecessor_patterns=build_predecessor_patterns(lattice, neighbor_sets),
        library=build_neighbor_library(lattice, margin, hp.m),
        prior_T=TransformPrior(hp.a_T, hp.b_T, sigma_s),
        prior_Tr=TransformPrior(hp.a_Tr, hp.b_Tr, sigma_s),
    )


def penalty_terms(h, h_r):
    """The two Frobenius identity gaps ||H_T H_Tr - I||_F, ||H_Tr H_T - I||_F
    of each pair of two (n, d + 1, d + 1) stacks of T and T^r; (n,) each."""
    return composition_identity_gap(h, h_r), composition_identity_gap(h_r, h)


def normal_logpdf(x, mean, var):
    """Sum of the N(x; mean, var) log densities over the broadcast arguments."""
    x = np.asarray(x, dtype=float)
    return float(np.sum(-0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)))


def invgamma_logpdf(x, shape, rate):
    """Sum of the IG(x; shape, rate) log densities over x, for a scalar shape;
    -inf unless every x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        return -np.inf
    return float(np.sum(shape * np.log(rate) - math.lgamma(shape)
                        - (shape + 1.0) * np.log(x) - rate / x))


def uniform_logpdf(x, lower, upper):
    if lower < x < upper:
        return float(-np.log(upper - lower))
    return -np.inf


def gibbs_log_posterior(state, hp, geom):
    """Unnormalized log Gibbs posterior over all latent quantities of a chain state.

    Sum of: the (1/2-weighted SSD) exponentiated loss, the NNGP log prior of
    X, the NNGP conditional log densities of each X(T_i) given X (library
    neighbor sets), transform log priors in both directions, and the
    beta / sigma^2 / alpha / rho log priors. Reads none of the state's
    caches: Y_i(T_i^r(S)) is interpolated, and the weights of T_i(S) solved, here.
    """
    x = np.asarray(state.X, dtype=float)
    cov = state.cov
    total = uniform_logpdf(cov.rho, hp.rho_lower, hp.rho_upper)
    total += invgamma_logpdf(cov.alpha, hp.a0_alpha, hp.b0_alpha)

    tb, tf = batched_nngp_weights(geom.locations, geom.neighbor_sets,
                                  geom.locations, cov)
    total += nngp_log_density_from_weights(x, x, geom.neighbor_sets, tb, tf)

    h, h_r = state.T, state.T_r
    locs = apply_stack(h, geom.locations).reshape(-1, geom.lattice.dim)
    nbr = lookup_neighbors(locs, geom.library)
    b, f = batched_nngp_weights(locs, nbr, geom.locations, cov)
    total += nngp_log_density_from_weights(x, state.XT.ravel(), nbr, b, f)

    y_bw = np.stack([Warp(amap, geom.locations)(t_r)
                     for amap, t_r in zip(state.maps, state.T_r)])
    beta, sigma2 = state.beta, state.sigma2
    ssd = (np.sum((state.Y - beta[:, None] * state.XT) ** 2, axis=1)
           + np.sum((y_bw - beta[:, None] * x) ** 2, axis=1))
    # 2V residual terms per subject, -1/2 log(2 pi sigma_i^2) each.
    total += float(np.sum(-0.5 * ssd / sigma2 - x.size * np.log(2.0 * np.pi * sigma2)))
    total += normal_logpdf(beta, hp.mu0, sigma2 / hp.lambda0)
    total += invgamma_logpdf(sigma2, hp.a0_sigma, hp.a1_sigma)
    p1, p2 = penalty_terms(h, h_r)
    total += float(np.sum(geom.prior_T.log_density(h) + geom.prior_Tr.log_density(h_r)
                          - hp.lambda_r * (p1 + p2)))
    return float(total)


def pointwise_log_lik(state):
    """Log pseudo-likelihood of the 2NV bidirectional residual terms of a chain state.

    Per subject: V forward terms log N(Y_l - beta XT_l | 0, sigma^2) followed
    by V backward terms log N(Y_bw_l - beta X_l | 0, sigma^2). Concatenated
    over subjects; this is one WAIC row per posterior sample.
    """
    beta, sigma2 = state.beta[:, None], state.sigma2[:, None]
    const = -0.5 * np.log(2.0 * np.pi * sigma2)
    fwd = const - 0.5 * (state.Y - beta * state.XT) ** 2 / sigma2
    bwd = const - 0.5 * (state.Y_bw - beta * state.X) ** 2 / sigma2
    return np.stack([fwd, bwd], axis=1).ravel()


def waic(pointwise):
    """WAIC = -2 (lppd - p_waic) from an (n_samples, n_obs) log-lik matrix."""
    ll = np.asarray(pointwise, dtype=float)
    if ll.ndim != 2 or ll.shape[0] < 2:
        raise DegenerateVariance("WAIC needs >= 2 samples per observation")
    s = ll.shape[0]
    col_max = ll.max(axis=0)
    lppd = float(np.sum(col_max + np.log(np.mean(np.exp(ll - col_max), axis=0))))
    p_waic = float(np.sum(ll.var(axis=0, ddof=1)))
    return -2.0 * (lppd - p_waic)
