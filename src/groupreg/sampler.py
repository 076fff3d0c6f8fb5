"""MCMC engine for the symmetric registration model.

Per-iteration sweep order (the template conditionals consume the freshest
transformed-template values), each a Gibbs or Metropolis step:

    {X(T_i)} for all i  ->  X  ->  {T_i}  ->  {T_i^r}
      ->  {beta_i, sigma_i^2}  ->  alpha  ->  rho

The model identifies the transforms only up to a common right-translation
of the T_i, and beta and X only up to a common scale. The chain leaves both
free. `Chain.record` identifies each kept draw instead, as a function of
that draw alone (`standardize_forward_transforms`, `standardize_scales`),
so the records are an exact push-forward of the sampled posterior and the
chain state is never changed by them.

`ChainState` stacks the subjects, one array per field, and each Gibbs
phase is one call for all of them; only the T_i and T_i^r Metropolis steps
and the sigma_i^2, beta_i draws loop over subjects. Each chain owns one
generator, `np.random.default_rng(config.seed)`, and every update draws from
it in sweep order: the (N, V) draw of the X(T_i) takes subject 0's normals
first, as a loop over subjects would.

NNGP weights come from the pattern cache (`spatial.KrigingFactor`) kept in
`ChainState.factor`. It is built for the current rho at construction and
for each rho proposal, kept on accept and dropped on reject; alpha only
rescales F. The distances from each T_i(S) to its neighbor sets do not
depend on rho, so the state keeps them, `ChainState.dist` (N, V, k), in
place of the transformed sites: `subject_geometry` computes them, a forward
accept stores them, and a rho proposal only inverts one matrix per distinct
library pattern and exponentiates the cached distances (`rho_weights`).

X | rest is Gaussian with a sparse banded precision Q (`template_conditional`)
and is drawn exactly in one block step (Rue 2001): a LAPACK banded Cholesky
Q = L L^T, then x = Q^-1 b + L^-T z. The bandwidth w is the widest column
span of this sweep's NNGP rows, about six lattice rows (168 on a 28x28
lattice), so the step costs O(V w^2) time and O(V w) memory. On one core of
a 2-core x86-64 machine it takes ~3 ms per sweep on 28x28 (assembly ~2 ms,
factor ~1 ms), against ~14 ms for the site-by-site Gibbs loop it replaced
(~18 us per site, O(V)); on synthetic lattices the two cross near 56x56,
beyond which the block step is the slower one.

T_i, T_i^r and the baseline's T_i all move by one Metropolis step on the
affine group, `lie_mh_step`: propose exp(delta) t, delta ~ N(0, adaptive
cov), and accept with log probability min(0, log pi(y) - log pi(x)
+ (d + 1) tr L), L the linear block of delta (`lie_mh_log_acceptance`).
The log targets are densities in the matrix entries of (A, b), and
(d + 1) tr L is the exact log Hastings ratio of this proposal in those
coordinates; no proposal density or reverse increment is evaluated. A
proposal with no real logarithm (`rejected_nolog`) or whose log target
raises OutOfLibraryBounds (`rejected_oob`) is rejected outright. Each step
draws delta, then the accept uniform, whether it rejects or not, so it
advances the chain's generator by the same draws either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs
from scipy.optimize import minimize

from .errors import (DegenerateInput, GroupregError, IllConditioned, InsufficientSamples,
                     NonPositiveScale, NoRealLogarithm, OutOfLibraryBounds,
                     SingularTransform)
from .grids import ActivationMap, common_lattice
from .interp import Warp
from .model import build_geometry, penalty_terms, pointwise_log_lik, waic
from .spatial import (CovarianceParams, KrigingFactor, conditional_means,
                      kriging_factor, library_weights, lookup_entries, neighbor_distances,
                      nngp_log_density_from_weights, predecessor_weights)
from .store import SampleStore
from .transforms import (AffineTransform, affine_apply, affine_compose,
                         affine_inverse, karcher_mean, lie_exp, lie_log, standardize)

ADAPT_TARGET_RATE = 0.234
RHO_STEP = 0.1        # standard deviation of the random-walk rho proposal
LIBRARY_SLACK = 5     # library grid steps beyond the initial transforms' reach


@dataclass
class AdaptiveProposal:
    """Robbins-Monro step-size and empirical covariance for one Lie-MH chain.

    log lambda moves by k^{-0.6} * (accept - 0.234) per proposal during
    burn-in; the proposal covariance is lambda * (cov of accepted deltas
    + 1e-8 I). Both freeze at the end of burn-in so the post-burn-in chain
    is Markov, and the frozen covariance is factored once.
    """

    dim: int
    log_lambda: float = np.log(1e-4)
    frozen: bool = False
    _mean: np.ndarray = None
    _m2: np.ndarray = None
    proposals: int = 0
    accepts: int = 0
    post_proposals: int = 0
    post_accepts: int = 0
    rejected_oob: int = 0
    rejected_nolog: int = 0
    _factor: np.ndarray = field(default=None, init=False, repr=False)   # cached while frozen

    def __post_init__(self):
        if self._mean is None:
            self._mean = np.zeros(self.dim)
        if self._m2 is None:
            self._m2 = np.zeros((self.dim, self.dim))

    @property
    def k(self):
        """Proposals made while adapting."""
        return self.proposals - self.post_proposals

    @property
    def n_accepted_cov(self):
        """Accepted deltas in the empirical covariance: those accepted while adapting."""
        return self.accepts - self.post_accepts

    def proposal_cov(self):
        if self.n_accepted_cov >= 5:
            base = self._m2 / (self.n_accepted_cov - 1)
        else:
            base = np.eye(self.dim)
        return np.exp(self.log_lambda) * (base + 1e-8 * np.eye(self.dim))

    def proposal_factor(self):
        """Lower Cholesky factor of `proposal_cov()`, computed once while frozen."""
        if self.frozen and self._factor is not None:
            return self._factor
        factor = np.linalg.cholesky(self.proposal_cov())
        if self.frozen:
            self._factor = factor
        return factor

    def record(self, accepted, delta):
        self.proposals += 1
        self.accepts += int(accepted)
        if self.frozen:
            self.post_proposals += 1
            self.post_accepts += int(accepted)
            return
        self._factor = None
        gamma = self.k ** -0.6
        self.log_lambda += gamma * ((1.0 if accepted else 0.0) - ADAPT_TARGET_RATE)
        if accepted:
            d = np.asarray(delta, dtype=float) - self._mean
            self._mean += d / self.n_accepted_cov
            self._m2 += np.outer(d, np.asarray(delta, dtype=float) - self._mean)

    def acceptance_rate(self, post_only=False):
        num, den = ((self.post_accepts, self.post_proposals) if post_only
                    else (self.accepts, self.proposals))
        return num / den if den else float("nan")


@dataclass
class ChainState:
    """The chain's latent state. Subject i has maps[i], T[i], T_r[i], beta[i],
    sigma2[i] and row i of the (N, V) arrays Y (the map's values), XT (X at
    T_i(S)), Y_bw (Y_i at T_i^r(S)) and F, and of the NNGP caches of T_i(S):
    library entries (N, V), neighbor sets nbr, their distances dist from
    T_i(S) and weights B (N, V, k). `warps[i]` samples maps[i] at T(S) for
    the reverse step."""

    X: np.ndarray
    maps: list
    T: list
    T_r: list
    Y: np.ndarray = field(repr=False)
    XT: np.ndarray = field(repr=False)
    Y_bw: np.ndarray = field(repr=False)
    beta: np.ndarray
    sigma2: np.ndarray
    alpha: float
    rho: float
    dist: np.ndarray = field(default=None, repr=False)
    entry: np.ndarray = field(default=None, repr=False)
    nbr: np.ndarray = field(default=None, repr=False)
    B: np.ndarray = field(default=None, repr=False)
    F: np.ndarray = field(default=None, repr=False)
    tB: np.ndarray = field(default=None, repr=False)     # template NNGP weights
    tF: np.ndarray = field(default=None, repr=False)
    factor: KrigingFactor = field(default=None, repr=False)  # pattern cache at rho
    warps: list = field(default=None, repr=False)
    rho_proposals: int = 0
    rho_accepts: int = 0

    @property
    def cov(self):
        return CovarianceParams(self.alpha, self.rho)


def subject_geometry(t, geom, factor, alpha):
    """The library entries of T(S), their neighbor sets and distances, and (B, F).

    Returns (dist, entry, nbr, B, F). Raises OutOfLibraryBounds when T moves
    a template site past the margin.
    """
    locs = affine_apply(t, geom.locations)
    entry = lookup_entries(locs, geom.library)
    dist = neighbor_distances(locs, entry, geom.library, geom.locations)
    b, f = library_weights(dist, entry, geom.library, factor, alpha)
    return dist, entry, geom.library.neighbor_indices[entry], b, f


def refresh_caches(state, geom):
    """Factor the neighbor patterns at state.rho; set the template's (B, F),
    every subject's NNGP caches for its current T_i, and one `Warp` of each
    subject map at the template sites, for the reverse step."""
    state.warps = [Warp(amap, geom.locations) for amap in state.maps]
    state.factor = kriging_factor(geom.library, geom.predecessor_patterns, state.rho)
    state.tB, state.tF = predecessor_weights(geom.predecessor_patterns, state.factor,
                                             state.alpha)
    caches = [subject_geometry(t, geom, state.factor, state.alpha) for t in state.T]
    state.dist, state.entry, state.nbr, state.B, state.F = map(np.stack, zip(*caches))


# ---------------------------------------------------------------------------
# Gibbs conditionals
# ---------------------------------------------------------------------------

def transformed_template_conditional(state):
    """Mean and variance of X(T_i(s_l)) | rest, (N, V) each.

    Precision beta^2/sigma^2 + 1/F, mean term beta*Y_l/sigma^2 + B x(N)/F:
    the beta-consistent form, reducing to the flat-scale formula at beta=1.
    """
    beta, sigma2 = state.beta[:, None], state.sigma2[:, None]
    prec = beta ** 2 / sigma2 + 1.0 / state.F
    lin = beta * state.Y / sigma2 + conditional_means(state.X, state.nbr, state.B) / state.F
    var = 1.0 / prec
    return lin * var, var


def update_transformed_template(state, rng):
    """Draw every X(T_i) at once; the (N, V) normal draw takes subject 0's row first."""
    mean, var = transformed_template_conditional(state)
    state.XT = mean + np.sqrt(var) * rng.standard_normal(mean.shape)
    return state.XT


def _band_terms(cols, w, finv, n_band):
    """Band slots and values of the upper-triangle pairs of each row's w w^T / F.

    cols and w are stored column-first, (k, n). Pair (p, q), p <= q, of a
    row lands at [d, j] = [|c_p - c_q|, min(c_p, c_q)] of a Fortran-ordered
    band with n_band rows, flat index j * n_band + d, so every off-diagonal
    pair is added once, to the lower band. Yields one (slots, values) chunk
    per p: small chunks stay in cache, where one (k^2 / 2, n) pass does not.
    """
    wf = w * finv
    for p in range(len(cols)):
        ci, cj = cols[p], cols[p:]
        slot = np.minimum(ci, cj)    # j * n_band + d = min * (n_band - 2) + c_p + c_q
        slot *= n_band - 2
        slot += ci
        slot += cj
        yield slot.ravel(), (wf[p] * w[p:]).ravel()


def template_conditional(state, geom):
    """Precision Q and linear term b of X | rest ~ N(Q^-1 b, Q^-1).

    Q = (I - B_t)^T F_t^-1 (I - B_t) + sum_i B_i^T F_i^-1 B_i
        + (sum_i beta_i^2 / sigma_i^2) I,
    b = sum_i B_i^T (XT_i / F_i) + sum_i beta_i Y_bw,i / sigma_i^2.
    Template row l has columns [l, predecessors] and weights [1, -B_t]; the
    padded predecessor slots carry B = 0 and are pointed at l itself. Subject
    rows are the library sets state.nbr with weights state.B, all subjects'
    rows one family. Q is returned in LAPACK lower-band storage,
    Fortran-ordered, Q[j + d, j] at [d, j]; its bandwidth is the widest
    column span of this state's rows.
    """
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
    slots, values = zip(*(t for f in families for t in _band_terms(*f, n_band)))
    ab = np.bincount(np.concatenate(slots), np.concatenate(values), n_band * v)
    ab = ab.reshape(v, n_band).T
    ab[0] += np.sum(state.beta ** 2 / state.sigma2)
    return ab, b


def update_template(state, geom, rng):
    """Exact block Gibbs draw x = Q^-1 b + L^-T z, with Q = L L^T banded."""
    ab, b = template_conditional(state, geom)
    chol, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise IllConditioned(f"template precision is not positive definite (dpbtrf info {info})")
    mean, _ = dpbtrs(chol, b, lower=1)
    noise, _ = dtbtrs(chol, rng.standard_normal(b.size), uplo="L", trans="T")
    state.X = mean + noise
    return state.X


def beta_sigma_conditional(state, hp):
    """Parameters of (beta_i, sigma_i^2) | rest for every subject.

    sigma_i^2 ~ IG(shape, rate_i) with beta_i marginalized out, then
    beta_i | sigma_i^2 ~ N(mu_i, lam_i sigma_i^2). Returns (shape, rate,
    mu, lam), the last three (N,); raises NonPositiveScale unless every
    rate is positive and finite.
    """
    x, xt, y, ybw = state.X, state.XT, state.Y, state.Y_bw
    row_dot = lambda a, b: np.einsum("nv,nv->n", a, b)
    lam = 1.0 / (row_dot(xt, xt) + float(x @ x) + hp.lambda0)
    mu = lam * (hp.mu0 * hp.lambda0 + row_dot(xt, y) + ybw @ x)
    rate = hp.a1_sigma + 0.5 * (row_dot(y, y) + row_dot(ybw, ybw)
                                + hp.mu0 ** 2 * hp.lambda0 - mu * mu / lam)
    if not np.all(np.isfinite(rate) & (rate > 0.0)):
        raise NonPositiveScale(f"sigma^2 inverse-gamma rate is {rate}")
    return hp.a0_sigma + y.shape[1], rate, mu, lam


def update_beta_sigma(state, hp, rng):
    """Draw each sigma_i^2 from its beta-marginalized conditional, then beta_i | sigma_i^2."""
    shape, rate, mu, lam = beta_sigma_conditional(state, hp)
    for i in range(rate.size):
        state.sigma2[i] = 1.0 / rng.gamma(shape=shape, scale=1.0 / rate[i])
        state.beta[i] = rng.normal(mu[i], np.sqrt(lam[i] * state.sigma2[i]))


def alpha_conditional(state, geom, hp):
    """Shape and rate of the conjugate inverse-gamma conditional for alpha."""
    x = state.X
    resid_t = x - conditional_means(x, geom.neighbor_sets, state.tB)
    resid = state.XT - conditional_means(x, state.nbr, state.B)
    quad = (float(np.sum(resid_t ** 2 * state.alpha / state.tF))
            + float(np.sum(resid ** 2 * state.alpha / state.F)))
    shape = hp.a0_alpha + x.size * (len(state.T) + 1) / 2.0
    rate = hp.b0_alpha + 0.5 * quad
    return shape, rate


def update_alpha(state, geom, hp, rng):
    shape, rate = alpha_conditional(state, geom, hp)
    new_alpha = 1.0 / rng.gamma(shape=shape, scale=1.0 / rate)
    ratio = new_alpha / state.alpha
    state.tF = state.tF * ratio
    state.F = state.F * ratio
    state.alpha = new_alpha
    return new_alpha


def rho_weights(state, geom, factor):
    """The template's (B, F) and the subjects' stacked (B, F), at the rho of `factor`
    and the state's alpha, from the cached neighbor distances."""
    n, v, k = state.dist.shape
    b, f = library_weights(state.dist.reshape(-1, k), state.entry.ravel(), geom.library,
                           factor, state.alpha)
    return (predecessor_weights(geom.predecessor_patterns, factor, state.alpha),
            (b.reshape(n, v, k), f.reshape(n, v)))


def rho_log_target(state, weights, geom):
    """rho-dependent part of the joint: the NNGP log densities of X and of every X(T_i).

    `weights` is (template (B, F), subjects' (B, F)): the state's cached
    weights, or `rho_weights(...)` for a proposal.
    """
    x = state.X
    (tb, tf), (b, f) = weights
    return (nngp_log_density_from_weights(x, x, geom.neighbor_sets, tb, tf)
            + nngp_log_density_from_weights(x, state.XT, state.nbr, b, f))


def update_rho(state, geom, hp, rng):
    """Random-walk Metropolis on rho; proposals outside (L, U) are rejected."""
    state.rho_proposals += 1
    prop = state.rho + RHO_STEP * rng.standard_normal()
    accept_draw = np.log(rng.uniform())
    if not (hp.rho_lower < prop < hp.rho_upper):
        return False
    factor_new = kriging_factor(geom.library, geom.predecessor_patterns, prop)
    new = rho_weights(state, geom, factor_new)
    old = ((state.tB, state.tF), (state.B, state.F))
    if accept_draw < rho_log_target(state, new, geom) - rho_log_target(state, old, geom):
        state.rho = prop
        state.factor = factor_new
        (state.tB, state.tF), (state.B, state.F) = new
        state.rho_accepts += 1
        return True
    return False


# ---------------------------------------------------------------------------
# Lie-group Metropolis-Hastings for the transforms
# ---------------------------------------------------------------------------

def lie_mh_log_acceptance(log_old, log_new, delta):
    """log acceptance of y = exp(delta) x, delta from a symmetric density.

    The log targets are densities in the matrix entries of (A, b), where the
    proposal density is q(y | x) = N(delta) / |det d vec(y) / d delta|. That
    Jacobian factors as det(dexp_delta) |det A_y|^d, and the reverse move is
    -delta, so the Gaussian terms cancel. Over the eigenvalues lam of
    ad_delta, dexp_delta has eigenvalues (e^lam - 1) / lam, so
    det(dexp_delta) / det(dexp_-delta) = e^{tr ad_delta} = e^{tr L}, L the
    linear block of delta; and |det A_y / det A_x|^d = e^{d tr L}. Hence
    log q(x | y) - log q(y | x) = (d + 1) tr L.
    """
    if delta.size == 2:
        return min(0.0, log_new - log_old + 2.0 * float(delta[0]))
    return min(0.0, log_new - log_old + 3.0 * float(delta[0] + delta[4]))


def forward_log_target(t, t_r, x, xt, weights, geom, hp):
    """T-dependent part of the joint: prior, NNGP terms of X(T), both penalties.

    `weights` is the (nbr, B, F) of T(S): a subject's cached weights for its
    current T, or `subject_geometry(t, ...)[2:]` for a proposal.
    """
    nbr, b, f = weights
    p1, p2 = penalty_terms(t, t_r)
    return (geom.prior_T.log_density(t)
            + nngp_log_density_from_weights(x, xt, nbr, b, f)
            - hp.lambda_r * (p1 + p2))


def reverse_log_target(t_r, t, x, y_bw, beta, sigma2, geom, hp):
    """T^r-dependent part: prior, SSD of y_bw = Y(T^r(S)) (1/2 weighted), both penalties."""
    ssd = float(np.sum((y_bw - beta * x) ** 2))
    p1, p2 = penalty_terms(t, t_r)
    return (geom.prior_Tr.log_density(t_r)
            - 0.5 * ssd / sigma2 - hp.lambda_r * (p1 + p2))


def lie_mh_step(t, log_old, log_target, adapt, rng):
    """One random-walk Metropolis step t -> exp(delta) t on the affine group.

    `log_old` is the log target at t; `log_target(t_new)` returns the log
    target at the proposal and a payload the caller keeps on accept. Returns
    (t_new, payload) on accept and None otherwise.
    """
    delta = adapt.proposal_factor() @ rng.standard_normal(adapt.dim)
    accept_draw = np.log(rng.uniform())
    t_new = affine_compose(lie_exp(delta), t)
    try:
        lie_log(t_new)  # proposals without a real logarithm are rejected
    except NoRealLogarithm:
        adapt.rejected_nolog += 1
        adapt.record(False, delta)
        return None
    try:
        log_new, payload = log_target(t_new)
    except OutOfLibraryBounds:
        adapt.rejected_oob += 1
        adapt.record(False, delta)
        return None
    accepted = accept_draw < lie_mh_log_acceptance(log_old, log_new, delta)
    adapt.record(accepted, delta)
    return (t_new, payload) if accepted else None


def update_forward_transform(i, state, geom, hp, adapt, rng):
    """One Lie-MH step of T_i; on accept, T_i and row i of its NNGP caches change."""
    def target(t):
        caches = subject_geometry(t, geom, state.factor, state.alpha)
        return forward_log_target(t, state.T_r[i], state.X, state.XT[i], caches[2:],
                                  geom, hp), caches

    log_old = forward_log_target(state.T[i], state.T_r[i], state.X, state.XT[i],
                                 (state.nbr[i], state.B[i], state.F[i]), geom, hp)
    step = lie_mh_step(state.T[i], log_old, target, adapt, rng)
    if step is None:
        return False
    state.T[i], (state.dist[i], state.entry[i], state.nbr[i], state.B[i], state.F[i]) = step
    return True


def update_reverse_transform(i, state, geom, hp, adapt, rng):
    """One Lie-MH step of T_i^r; on accept, T_i^r and row i of Y_bw change."""
    def target(t_r):
        y_bw = state.warps[i](t_r)
        return reverse_log_target(t_r, state.T[i], state.X, y_bw, state.beta[i],
                                  state.sigma2[i], geom, hp), y_bw

    log_old = reverse_log_target(state.T_r[i], state.T[i], state.X, state.Y_bw[i],
                                 state.beta[i], state.sigma2[i], geom, hp)
    step = lie_mh_step(state.T_r[i], log_old, target, adapt, rng)
    if step is None:
        return False
    state.T_r[i], state.Y_bw[i] = step
    return True


def standardize_forward_transforms(ts, ts_r):
    """T_i M^-1 and M T_i^r, M the Karcher mean of the T_i.

    The forward transforms get Karcher mean identity, and each pair keeps
    its H_T H_Tr, so the inverse-consistency error of a draw is unchanged.
    """
    mean = karcher_mean(ts)
    mean_inv = affine_inverse(mean)
    return ([affine_compose(t, mean_inv) for t in ts],
            [affine_compose(mean, t_r) for t_r in ts_r])


def standardize_scales(x, betas, alpha):
    """beta_i / c, c X and c^2 alpha, c = mean(beta): the betas get mean 1.

    Every beta_i X, and the GP prior's alpha relative to X, are unchanged.
    Raises NonPositiveScale unless c is positive and finite.
    """
    bar = float(np.mean(betas))
    if not (np.isfinite(bar) and bar > 0.0):
        raise NonPositiveScale(f"mean beta is {bar}; the scale cannot be standardized")
    return betas / bar, x * bar, alpha * bar * bar


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def fit_scale(y_values, xt_values):
    """No-intercept regression coefficient of Y onto X(T)."""
    den = float(np.dot(xt_values, xt_values))
    if den <= 0.0:
        raise DegenerateInput("scale regression undefined: X(T) is identically zero")
    return float(np.dot(xt_values, y_values)) / den


def _coarse_grid(lattice):
    """Deterministic coarse search grid over the affine group."""
    lower, upper = lattice.bounds()
    extent = upper - lower
    center = 0.5 * (lower + upper)
    out = []
    if lattice.dim == 1:
        shifts = np.linspace(-0.25 * extent[0], 0.25 * extent[0], 21)
        scales = np.linspace(0.8, 1.25, 10)
        for c in scales:
            for u in shifts:
                a = np.array([[c]])
                b = np.array([u]) + center - a @ center
                out.append(AffineTransform.from_parts(a, b))
    else:
        shifts0 = np.linspace(-0.25 * extent[0], 0.25 * extent[0], 5)
        shifts1 = np.linspace(-0.25 * extent[1], 0.25 * extent[1], 5)
        angles = np.linspace(-np.pi / 6.0, np.pi / 6.0, 7)
        scales = (0.9, 1.0, 1.1)
        for c in scales:
            for th in angles:
                rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
                a = c * rot
                for u0 in shifts0:
                    for u1 in shifts1:
                        b = np.array([u0, u1]) + center - a @ center
                        out.append(AffineTransform.from_parts(a, b))
    return out


def fit_affine(y_map, x_map, beta, start, coarse=False):
    """Affine transform minimizing ||Y - beta X(T)||^2, coarse grid + Nelder-Mead.

    The objective warps X to Y's sites thousands of times per call, always
    the same map at the same sites, so one `Warp` is built per call and each
    evaluation pays only for the transform and the stencil.
    """
    warp = Warp(x_map, y_map.lattice.locations())
    y = y_map.values

    def objective(t):
        xt = warp(t)
        r = y - beta * xt
        return float(r @ r)

    candidates = [start] + (_coarse_grid(y_map.lattice) if coarse else [])
    objs = [objective(t) for t in candidates]
    best = candidates[int(np.argmin(objs))]

    def lie_objective(dv):
        try:
            t = lie_exp(dv)
        except SingularTransform:   # a vertex with no invertible transform
            return np.inf
        return objective(t)

    x0 = lie_log(best)
    res = minimize(lie_objective, x0, method="Nelder-Mead",
                   options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": 400 * x0.size})
    if res.fun <= min(objs):
        return lie_exp(res.x)
    return best


def initialize(maps, config):
    """Alternating template/transform initialization (deterministic).

    Repeats: fit each T_i by warping beta_i X to Y_i (coarse grid on the
    first pass, Nelder-Mead refinement thereafter), re-fit beta_i by
    no-intercept regression, standardize T at identity and beta at 1, then
    re-estimate X as the mean of back-warped maps Y_i(T_i^{-1})/beta_i.
    Stops after config.init_iters passes or when the template change drops
    below 1e-4 relative. Needs only the maps' lattice: the neighbor library
    is sized afterwards from the transforms found here (`library_margin`).

    Every warp goes through a prebuilt `Warp`: one per subject map for the
    back-warps, built once, and one per pass for X(T_i) (besides the one
    each `fit_affine` call builds for its objective).
    """
    lattice = common_lattice(maps)
    for amap in maps:
        if np.ptp(amap.values) == 0.0:
            raise DegenerateInput("constant map: scale regression undefined")

    pts = lattice.locations()
    back = [Warp(amap, pts) for amap in maps]
    x = np.mean([amap.values for amap in maps], axis=0)
    n = len(maps)
    ts = [AffineTransform.identity(lattice.dim) for _ in range(n)]
    betas = np.ones(n)

    for it in range(config.init_iters):
        x_map = ActivationMap(lattice, x)
        ts = [fit_affine(maps[i], x_map, betas[i], ts[i], coarse=(it == 0))
              for i in range(n)]
        warp = Warp(x_map, pts)
        for i in range(n):
            betas[i] = fit_scale(maps[i].values, warp(ts[i]))
        ts = standardize(ts)
        betas = betas / np.mean(betas)
        x_new = np.mean([back[i](affine_inverse(ts[i])) / betas[i] for i in range(n)],
                        axis=0)
        rel = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-12)
        x = x_new
        if rel < 1e-4:
            break

    x_map = ActivationMap(lattice, x)
    ts_r = [affine_inverse(t) for t in ts]
    y = np.stack([amap.values for amap in maps])
    warp = Warp(x_map, pts)
    xt = np.stack([warp(t) for t in ts])
    y_bw = np.stack([w(t_r) for w, t_r in zip(back, ts_r)])
    sigma2 = np.maximum(np.mean((y - betas[:, None] * xt) ** 2, axis=1), 1e-12)
    alpha = max(float(np.var(x)), 1e-12)
    rho = 0.5 * (config.rho_lower + config.rho_upper)
    return ChainState(X=x.copy(), maps=list(maps), T=ts, T_r=ts_r, Y=y, XT=xt, Y_bw=y_bw,
                      beta=betas, sigma2=sigma2, alpha=alpha, rho=rho)


# ---------------------------------------------------------------------------
# Chain orchestration
# ---------------------------------------------------------------------------

class ChainAborted(GroupregError):
    """A sweep failed; carries a diagnostic snapshot of the chain state."""

    def __init__(self, message, snapshot):
        super().__init__(message)
        self.snapshot = snapshot


def library_margin(lattice, ts):
    """Library margin in grid steps that holds every T_i(S), plus LIBRARY_SLACK.

    The overshoot is how far any transformed site lies outside the lattice's
    bounding box, in grid steps of any axis; the margin is its ceiling plus
    the slack, which leaves room for the chain's first moves.
    """
    locs, last = lattice.locations(), np.asarray(lattice.shape) - 1
    u = lattice.to_index_coords(np.concatenate([affine_apply(t, locs) for t in ts]))
    over = max(0.0, float(np.max(-u)), float(np.max(u - last)))
    return int(np.ceil(over)) + LIBRARY_SLACK


class Chain:
    """The symmetric model's chain, and the run loop and sweep of every model.

    A model's `__init__` sets the `config`, `maps`, `lattice`, `lambda_r`,
    `proposals` (by direction), `iteration` and `rng` (the chain's one
    generator, seeded by `config.seed`) that these read; it supplies
    `updates`, `record`, `snapshot` and `model_diagnostics`
    (`baseline.ConventionalChain` is the other model).

    The neighbor library is sized from the initial state, by
    `library_margin`, so no set-up fails for want of margin. A chain that
    moves a transform further out rejects that move.
    """

    def __init__(self, maps, config, initial_state=None):
        self.config = config
        self.lattice = lattice = common_lattice(maps)
        self.maps = list(maps)
        self.lambda_r = config.lambda_r
        self.iteration = 0
        self.rng = np.random.default_rng(config.seed)
        if initial_state is None:
            initial_state = initialize(self.maps, config)
        self.geom = build_geometry(lattice, config, library_margin(lattice, initial_state.T))
        self.state = initial_state
        n = len(self.state.T)
        dim_lie = lattice.dim * (lattice.dim + 1)
        self.proposals = {direction: [AdaptiveProposal(dim_lie) for _ in range(n)]
                          for direction in ("forward", "reverse")}
        refresh_caches(self.state, self.geom)

    def guarded(self, stage, sweep, step):
        """step(), with a GroupregError re-raised as ChainAborted and a snapshot.

        `stage` is "sweep" for a failure inside sweep `sweep`, "record" for one
        while recording it. The snapshot names both (`failed_sweep`, `stage`):
        its `iteration` counts the sweeps done, which is `sweep` for the first
        and `sweep + 1` for the second.
        """
        try:
            return step()
        except GroupregError as exc:
            what = f"sweep {sweep}" if stage == "sweep" else f"recording sweep {sweep}"
            snapshot = dict(self.snapshot(), failed_sweep=sweep, stage=stage)
            raise ChainAborted(f"{what} failed: {exc}", snapshot) from exc

    def sweep(self):
        """`updates`, with the proposals frozen when burn-in ends; ChainAborted on failure."""
        it = self.iteration
        if it == self.config.burn_in:
            for recs in self.proposals.values():
                for rec in recs:
                    rec.frozen = True
        self.guarded("sweep", it, self.updates)
        self.iteration += 1

    def updates(self):
        """One sweep's updates, in the order of the module docstring."""
        state, geom, hp, rng = self.state, self.geom, self.config, self.rng
        update_transformed_template(state, rng)
        update_template(state, geom, rng)
        for i, adapt in enumerate(self.proposals["forward"]):
            update_forward_transform(i, state, geom, hp, adapt, rng)
        for i, adapt in enumerate(self.proposals["reverse"]):
            update_reverse_transform(i, state, geom, hp, adapt, rng)
        update_beta_sigma(state, hp, rng)
        update_alpha(state, geom, hp, rng)
        update_rho(state, geom, hp, rng)

    def record(self):
        """The current draw's `SampleStore` fields, standardized, and what
        `model_diagnostics` reads.

        The fields are the draw with its forward transforms at Karcher mean
        identity and its betas at mean 1 (`standardize_forward_transforms`,
        `standardize_scales`); the chain state is left as it is. The
        pointwise log-likelihood and the inverse-consistency error are the
        same for the raw and the standardized draw.
        """
        st = self.state
        ts, ts_r = standardize_forward_transforms(st.T, st.T_r)
        betas, x, alpha = standardize_scales(st.X, st.beta, st.alpha)
        fields = (x, np.stack([t.matrix for t in ts]), np.stack([t.matrix for t in ts_r]),
                  betas, st.sigma2.copy(), alpha, st.rho)  # sweeps write sigma2 in place
        ic_error = np.mean([penalty_terms(t, t_r)[0] for t, t_r in zip(st.T, st.T_r)])
        return fields, (pointwise_log_lik(st), ic_error)

    def snapshot(self):
        state = self.state
        return {
            "iteration": self.iteration,
            "alpha": state.alpha,
            "rho": state.rho,
            "beta": state.beta.tolist(),
            "sigma2": state.sigma2.tolist(),
            "transforms": [t.matrix.tolist() for t in state.T],
            "reverse_transforms": [t.matrix.tolist() for t in state.T_r],
        }

    def run(self):
        """Run the configured chain; returns (SampleStore, diagnostics dict)."""
        cfg = self.config
        t_start = time.perf_counter()
        kept = []
        for it in range(cfg.total):
            self.sweep()
            if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
                kept.append(self.guarded("record", it, self.record))
        runtime = time.perf_counter() - t_start

        fields, extras = zip(*kept)
        lattice = self.lattice
        meta = {
            "model": cfg.model,
            "seed": cfg.seed,
            "config_hash": cfg.config_hash(),
            "lambda_r": self.lambda_r,
            "dim": lattice.dim,
            "shape": list(lattice.shape),
            "spacing": [float(s) for s in lattice.spacing],
            "origin": [float(o) for o in lattice.origin],
            "n_subjects": len(self.maps),
        }
        store = SampleStore(meta, *(np.asarray(col, dtype=float) for col in zip(*fields)))
        diagnostics = {
            "runtime_seconds": runtime,
            "iterations": self.iteration,
            "n_samples": len(kept),
            "rejected_out_of_library": [r.rejected_oob for r in self.proposals["forward"]],
            "rejected_no_real_log": [sum(r.rejected_nolog for r in recs)
                                     for recs in zip(*self.proposals.values())],
        }
        for direction, recs in self.proposals.items():
            diagnostics[f"{direction}_acceptance"] = [r.acceptance_rate() for r in recs]
            diagnostics[f"{direction}_acceptance_post_burnin"] = [
                r.acceptance_rate(post_only=True) for r in recs]
        diagnostics.update(self.model_diagnostics(extras))
        return store, diagnostics

    def model_diagnostics(self, extras):
        """rho acceptance, last scalar values, mean IC error and WAIC of the kept records.

        The `*_last` values are the raw chain state after the last sweep, not
        standardized as the records are.
        """
        st = self.state
        kept_ll, kept_ic = zip(*extras)
        return {
            "rho_acceptance": (st.rho_accepts / st.rho_proposals
                               if st.rho_proposals else float("nan")),
            "alpha_last": st.alpha,
            "rho_last": st.rho,
            "mean_ic_error": float(np.mean(kept_ic)),
            "library_margin": self.geom.library.margin,
            "beta_last": st.beta.tolist(),
            "sigma2_last": st.sigma2.tolist(),
            "waic": waic(np.asarray(kept_ll)) if len(kept_ll) >= 2 else float("nan"),
        }


# ---------------------------------------------------------------------------
# Posterior summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PosteriorSummary:
    mean: np.ndarray
    sd: np.ndarray
    ratio: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    mean_forward: list
    mean_reverse: list


def summarize(store, level=0.95):
    """Location-wise mean/sd/ratio and equal-tailed credible intervals.

    The store's draws are standardized as `Chain.record` writes them, so
    these summarize the identified template and transforms. The ratio is
    reported as 0 where sd < 1e-12. Posterior-mean transforms are Karcher
    means of the sampled transforms, per subject and direction.
    """
    x = np.asarray(store.X, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InsufficientSamples("summaries need at least 2 samples")
    mean = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1)
    ratio = np.where(sd < 1e-12, 0.0, mean / np.where(sd < 1e-12, 1.0, sd))
    tail = 0.5 * (1.0 - level)
    lower = np.quantile(x, tail, axis=0)
    upper = np.quantile(x, 1.0 - tail, axis=0)
    mean_fwd, mean_rev = [], []
    for i in range(store.n_subjects):
        mean_fwd.append(karcher_mean(
            [AffineTransform(h) for h in store.H_fwd[:, i]]))
        mean_rev.append(karcher_mean(
            [AffineTransform(h) for h in store.H_rev[:, i]]))
    return PosteriorSummary(mean=mean, sd=sd, ratio=ratio, lower=lower,
                            upper=upper, level=level,
                            mean_forward=mean_fwd, mean_reverse=mean_rev)
