"""MCMC engine for the symmetric registration model.

Per-iteration sweep order (the template conditionals consume the freshest
transformed-template values):

    {X(T_i)} for all i  ->  X  ->  {T_i}  ->  {T_i^r}
      ->  standardize({T_i})  ->  {beta_i, sigma_i^2}  ->  alpha  ->  rho

Forward transforms are Karcher-standardized after every sweep; the stored
X(T_i) values are carried over and re-bound to the relabeled locations'
neighbor sets. Reverse transforms are never standardized (their anchoring
comes through the penalty terms).

Randomness is drawn from counter-based streams keyed by
(seed, iteration, phase, subject), so a result does not depend on the order
in which subjects are visited. Subjects are updated in one plain loop.

NNGP weights come from the pattern cache (`spatial.KrigingFactor`) kept in
`ChainState.factor`. It is built for the current rho at construction and
for each rho proposal, kept on accept and dropped on reject; alpha only
rescales F.

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
draws delta, then the accept uniform, whether it rejects or not, so every
per-(iteration, phase, subject) stream advances by the same draws.
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
from .interp import interpolate
from .model import (SubjectBlock, build_geometry, penalty_terms, pointwise_log_lik,
                    waic)
from .spatial import (CovarianceParams, KrigingFactor, conditional_means,
                      kriging_factor, library_weights, lookup_entries,
                      nngp_log_density_from_weights, predecessor_weights)
from .store import SampleStore
from .transforms import (AffineTransform, affine_apply, affine_compose,
                         affine_inverse, karcher_mean, lie_exp, lie_log, standardize)

ADAPT_TARGET_RATE = 0.234
RHO_STEP = 0.1        # standard deviation of the random-walk rho proposal
LIBRARY_SLACK = 5     # library grid steps beyond the initial transforms' reach

# Phase tags for the counter-based random streams.
_PH_XT, _PH_X, _PH_TFWD, _PH_TREV, _PH_BETA, _PH_ALPHA, _PH_RHO = range(7)


def substream(seed, iteration, phase, subject=0):
    """Deterministic per-(iteration, phase, subject) generator."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(int(iteration), int(phase), int(subject)))
    return np.random.Generator(np.random.Philox(ss))


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
    k: int = 0
    frozen: bool = False
    _mean: np.ndarray = None
    _m2: np.ndarray = None
    n_accepted_cov: int = 0
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

    def record(self, accepted, delta=None):
        self.proposals += 1
        self.accepts += int(accepted)
        if self.frozen:
            self.post_proposals += 1
            self.post_accepts += int(accepted)
            return
        self._factor = None
        self.k += 1
        gamma = self.k ** -0.6
        self.log_lambda += gamma * ((1.0 if accepted else 0.0) - ADAPT_TARGET_RATE)
        if accepted and delta is not None:
            self.n_accepted_cov += 1
            d = np.asarray(delta, dtype=float) - self._mean
            self._mean += d / self.n_accepted_cov
            self._m2 += np.outer(d, np.asarray(delta, dtype=float) - self._mean)

    def acceptance_rate(self, post_only=False):
        num, den = ((self.post_accepts, self.post_proposals) if post_only
                    else (self.accepts, self.proposals))
        return num / den if den else float("nan")


@dataclass
class SubjectState(SubjectBlock):
    """SubjectBlock plus NNGP caches for the current forward transform."""

    locs: np.ndarray = field(default=None, repr=False)   # T(S), (V, d)
    entry: np.ndarray = field(default=None, repr=False)  # library entry of each T(s_l)
    nbr: np.ndarray = field(default=None, repr=False)    # library neighbor sets
    B: np.ndarray = field(default=None, repr=False)
    F: np.ndarray = field(default=None, repr=False)


@dataclass
class ChainState:
    X: np.ndarray
    blocks: list
    alpha: float
    rho: float
    tB: np.ndarray = field(default=None, repr=False)     # template NNGP weights
    tF: np.ndarray = field(default=None, repr=False)
    factor: KrigingFactor = field(default=None, repr=False)  # pattern cache at rho
    rho_proposals: int = 0
    rho_accepts: int = 0

    @property
    def cov(self):
        return CovarianceParams(self.alpha, self.rho)


def refresh_template_weights(state, geom):
    """Factor the neighbor patterns at state.rho and set the template (B, F)."""
    state.factor = kriging_factor(geom.library, geom.predecessor_patterns, state.rho)
    state.tB, state.tF = predecessor_weights(geom.predecessor_patterns, state.factor,
                                             state.alpha)


def subject_geometry(t, geom, factor, alpha):
    """T(S), its library entries and neighbor sets, and their (B, F).

    Raises OutOfLibraryBounds when T moves a template site past the margin.
    """
    locs = affine_apply(t, geom.locations)
    entry = lookup_entries(locs, geom.library)
    b, f = library_weights(locs, entry, geom.library, geom.locations, factor, alpha)
    return locs, entry, geom.library.neighbor_indices[entry], b, f


def refresh_subject_geometry(blk, geom, factor, alpha):
    """Recompute T(S), library neighbor sets and (B, F) for one subject."""
    blk.locs, blk.entry, blk.nbr, blk.B, blk.F = subject_geometry(blk.T, geom, factor, alpha)


# ---------------------------------------------------------------------------
# Gibbs conditionals
# ---------------------------------------------------------------------------

def transformed_template_conditional(blk, x):
    """Mean and variance vectors of X(T_i(s_l)) | rest for all l.

    Precision beta^2/sigma^2 + 1/F, mean term beta*Y_l/sigma^2 + B x(N)/F:
    the beta-consistent form, reducing to the flat-scale formula at beta=1.
    """
    prec = blk.beta ** 2 / blk.sigma2 + 1.0 / blk.F
    lin = blk.beta * blk.Y.values / blk.sigma2 + conditional_means(x, blk.nbr, blk.B) / blk.F
    var = 1.0 / prec
    return lin * var, var


def update_transformed_template(blk, x, rng):
    mean, var = transformed_template_conditional(blk, x)
    return mean + np.sqrt(var) * rng.standard_normal(mean.size)


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
    rows are the library sets blk.nbr with weights blk.B. Q is returned in
    LAPACK lower-band storage, Fortran-ordered, Q[j + d, j] at [d, j]; its
    bandwidth is the widest column span of this state's rows.
    """
    v = state.X.size
    own = np.arange(v)[:, None]
    nsets = geom.neighbor_sets
    rows = [(np.hstack([own, np.where(nsets >= 0, nsets, own)]),
             np.hstack([np.ones((v, 1)), -state.tB]), 1.0 / state.tF)]
    blocks = state.blocks
    b = np.zeros(v)
    diag = 0.0
    for blk in blocks:
        b += np.bincount(blk.nbr.ravel(), (blk.B * (blk.XT / blk.F)[:, None]).ravel(), v)
        b += blk.beta / blk.sigma2 * blk.Y_bw
        diag += blk.beta ** 2 / blk.sigma2
    rows.append((np.concatenate([blk.nbr for blk in blocks]),
                 np.concatenate([blk.B for blk in blocks]),
                 1.0 / np.concatenate([blk.F for blk in blocks])))
    families = [(np.ascontiguousarray(c.T), np.ascontiguousarray(w.T), finv)
                for c, w, finv in rows]
    n_band = 1 + max(int(np.max(c.max(axis=0) - c.min(axis=0))) for c, _, _ in families)
    slots, values = zip(*(t for f in families for t in _band_terms(*f, n_band)))
    ab = np.bincount(np.concatenate(slots), np.concatenate(values), n_band * v)
    ab = ab.reshape(v, n_band).T
    ab[0] += diag
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


def beta_sigma_conditional(blk, x, hp):
    """Parameters of (beta, sigma^2) | rest.

    sigma^2 ~ IG(shape, rate) with beta marginalized out, then
    beta | sigma^2 ~ N(mu_n, lam_n sigma^2). Returns (shape, rate, mu_n,
    lam_n); raises NonPositiveScale when the rate is not positive and finite.
    """
    xt, y, ybw = blk.XT, blk.Y.values, blk.Y_bw
    lam_n = 1.0 / (float(xt @ xt) + float(x @ x) + hp.lambda0)
    mu_n = lam_n * (hp.mu0 * hp.lambda0 + float(xt @ y) + float(x @ ybw))
    rate = hp.a1_sigma + 0.5 * (float(y @ y) + float(ybw @ ybw)
                                + hp.mu0 ** 2 * hp.lambda0 - mu_n * mu_n / lam_n)
    # mu_n * mu_n, not mu_n ** 2: a float power raises OverflowError instead
    # of giving inf, which would escape the check below.
    if not (np.isfinite(rate) and rate > 0.0):
        raise NonPositiveScale(f"sigma^2 inverse-gamma rate is {rate}")
    return hp.a0_sigma + y.size, rate, mu_n, lam_n


def update_beta_sigma(blk, x, hp, rng):
    """Draw sigma^2 from its beta-marginalized conditional, then beta | sigma^2."""
    shape, rate, mu_n, lam_n = beta_sigma_conditional(blk, x, hp)
    sigma2 = 1.0 / rng.gamma(shape=shape, scale=1.0 / rate)
    beta = rng.normal(mu_n, np.sqrt(lam_n * sigma2))
    return beta, sigma2


def alpha_conditional(state, geom, hp):
    """Shape and rate of the conjugate inverse-gamma conditional for alpha."""
    x = state.X
    v = x.size
    n = len(state.blocks)
    resid_t = x - conditional_means(x, geom.neighbor_sets, state.tB)
    quad = float(np.sum(resid_t ** 2 * state.alpha / state.tF))
    for blk in state.blocks:
        resid = blk.XT - conditional_means(x, blk.nbr, blk.B)
        quad += float(np.sum(resid ** 2 * state.alpha / blk.F))
    shape = hp.a0_alpha + v * (n + 1) / 2.0
    rate = hp.b0_alpha + 0.5 * quad
    return shape, rate


def update_alpha(state, geom, hp, rng):
    shape, rate = alpha_conditional(state, geom, hp)
    new_alpha = 1.0 / rng.gamma(shape=shape, scale=1.0 / rate)
    ratio = new_alpha / state.alpha
    state.tF = state.tF * ratio
    for blk in state.blocks:
        blk.F = blk.F * ratio
    state.alpha = new_alpha
    return new_alpha


def rho_weights(state, geom, factor):
    """The template's (B, F) and each subject's, at the rho of `factor` and the state's alpha."""
    return (predecessor_weights(geom.predecessor_patterns, factor, state.alpha),
            [library_weights(blk.locs, blk.entry, geom.library, geom.locations, factor,
                             state.alpha) for blk in state.blocks])


def rho_log_target(state, weights, geom):
    """rho-dependent part of the joint: the NNGP log densities of X and each X(T_i).

    `weights` is (template (B, F), [subject (B, F)]): the state's cached
    weights, or `rho_weights(...)` for a proposal.
    """
    x = state.X
    (tb, tf), subjects = weights
    log = nngp_log_density_from_weights(x, x, geom.neighbor_sets, tb, tf)
    for blk, (b, f) in zip(state.blocks, subjects):
        log += nngp_log_density_from_weights(x, blk.XT, blk.nbr, b, f)
    return log


def update_rho(state, geom, hp, rng):
    """Random-walk Metropolis on rho; proposals outside (L, U) are rejected."""
    state.rho_proposals += 1
    prop = state.rho + RHO_STEP * rng.standard_normal()
    accept_draw = np.log(rng.uniform())
    if not (hp.rho_lower < prop < hp.rho_upper):
        return False
    factor_new = kriging_factor(geom.library, geom.predecessor_patterns, prop)
    new = rho_weights(state, geom, factor_new)
    old = ((state.tB, state.tF), [(blk.B, blk.F) for blk in state.blocks])
    if accept_draw < rho_log_target(state, new, geom) - rho_log_target(state, old, geom):
        state.rho = prop
        state.factor = factor_new
        (state.tB, state.tF), subjects = new
        for blk, (b, f) in zip(state.blocks, subjects):
            blk.B, blk.F = b, f
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
        adapt.record(False)
        return None
    try:
        log_new, payload = log_target(t_new)
    except OutOfLibraryBounds:
        adapt.rejected_oob += 1
        adapt.record(False)
        return None
    accepted = accept_draw < lie_mh_log_acceptance(log_old, log_new, delta)
    adapt.record(accepted, delta)
    return (t_new, payload) if accepted else None


def update_forward_transform(blk, state, geom, hp, adapt, rng):
    def target(t):
        caches = subject_geometry(t, geom, state.factor, state.alpha)
        return forward_log_target(t, blk.T_r, state.X, blk.XT, caches[2:], geom, hp), caches

    log_old = forward_log_target(blk.T, blk.T_r, state.X, blk.XT, (blk.nbr, blk.B, blk.F),
                                 geom, hp)
    step = lie_mh_step(blk.T, log_old, target, adapt, rng)
    if step is None:
        return False
    blk.T, (blk.locs, blk.entry, blk.nbr, blk.B, blk.F) = step
    return True


def update_reverse_transform(blk, state, geom, hp, adapt, rng):
    def target(t_r):
        y_bw = interpolate(blk.Y, affine_apply(t_r, geom.locations))
        return reverse_log_target(t_r, blk.T, state.X, y_bw, blk.beta, blk.sigma2, geom, hp), y_bw

    log_old = reverse_log_target(blk.T_r, blk.T, state.X, blk.Y_bw, blk.beta, blk.sigma2,
                                 geom, hp)
    step = lie_mh_step(blk.T_r, log_old, target, adapt, rng)
    if step is None:
        return False
    blk.T_r, blk.Y_bw = step
    return True


def standardize_forward_transforms(state, geom):
    """Right-translate {T_i} by the inverse Karcher mean; re-bind X(T_i) sets.

    Standardization is a relabeling: the stored X(T_i) values are carried
    over, only the site locations (and hence neighbor sets / weights) move.
    """
    ts = standardize([blk.T for blk in state.blocks])
    for blk, t in zip(state.blocks, ts):
        blk.T = t
        refresh_subject_geometry(blk, geom, state.factor, state.alpha)


def standardize_scales(state):
    """Rescale so mean(beta) = 1, moving the scale into the template.

    The products beta_i * X and beta_i * X(T_i) are invariant: beta_i is
    divided by the mean while X and the stored X(T_i) are multiplied by it.
    Like the transform standardization, this pins the scale direction of the
    (beta, X) non-identifiability; the alpha draw that follows re-equilibrates
    the GP amplitude to the rescaled template.
    """
    bar = float(np.mean([blk.beta for blk in state.blocks]))
    if not np.isfinite(bar) or bar <= 1e-8:
        return
    for blk in state.blocks:
        blk.beta /= bar
        blk.XT = blk.XT * bar
    state.X = state.X * bar


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
    """Affine transform minimizing ||Y - beta X(T)||^2, coarse grid + Nelder-Mead."""
    pts = y_map.lattice.locations()
    y = y_map.values

    def objective(t):
        xt = interpolate(x_map, affine_apply(t, pts))
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
    """
    lattice = common_lattice(maps)
    for amap in maps:
        if np.ptp(amap.values) == 0.0:
            raise DegenerateInput("constant map: scale regression undefined")

    pts = lattice.locations()
    x = np.mean([amap.values for amap in maps], axis=0)
    n = len(maps)
    ts = [AffineTransform.identity(lattice.dim) for _ in range(n)]
    betas = np.ones(n)

    for it in range(config.init_iters):
        x_map = ActivationMap(lattice, x)
        ts = [fit_affine(maps[i], x_map, betas[i], ts[i], coarse=(it == 0))
              for i in range(n)]
        for i in range(n):
            xt = interpolate(x_map, affine_apply(ts[i], pts))
            betas[i] = fit_scale(maps[i].values, xt)
        ts = standardize(ts)
        betas = betas / np.mean(betas)
        x_new = np.mean(
            [interpolate(maps[i], affine_apply(affine_inverse(ts[i]), pts)) / betas[i]
             for i in range(n)], axis=0)
        rel = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-12)
        x = x_new
        if rel < 1e-4:
            break

    x_map = ActivationMap(lattice, x)
    blocks = []
    for amap, t, beta in zip(maps, ts, betas):
        t_r = affine_inverse(t)
        xt = interpolate(x_map, affine_apply(t, pts))
        sigma2 = max(float(np.mean((amap.values - beta * xt) ** 2)), 1e-12)
        y_bw = interpolate(amap, affine_apply(t_r, pts))
        blocks.append(SubjectState(Y=amap, T=t, T_r=t_r, beta=float(beta),
                                   sigma2=sigma2, XT=xt, Y_bw=y_bw))
    alpha = max(float(np.var(x)), 1e-12)
    rho = 0.5 * (config.rho_lower + config.rho_upper)
    return ChainState(X=x.copy(), blocks=blocks, alpha=alpha, rho=rho)


# ---------------------------------------------------------------------------
# Chain orchestration
# ---------------------------------------------------------------------------

class ChainAborted(GroupregError):
    """A sweep failed; carries a diagnostic snapshot of the chain state."""

    def __init__(self, message, snapshot):
        super().__init__(message)
        self.snapshot = snapshot


def library_margin(lattice, blocks):
    """Library margin in grid steps that holds every T_i(S), plus LIBRARY_SLACK.

    The overshoot is how far any transformed site lies outside the lattice's
    bounding box, in grid steps of any axis; the margin is its ceiling plus
    the slack, which leaves room for the chain's first moves.
    """
    locs, last = lattice.locations(), np.asarray(lattice.shape) - 1
    over = 0.0
    for blk in blocks:
        u = lattice.to_index_coords(affine_apply(blk.T, locs))
        over = max(over, float(np.max(-u)), float(np.max(u - last)))
    return int(np.ceil(over)) + LIBRARY_SLACK


class Chain:
    """The symmetric model's chain, and the run loop and sweep of every model.

    A model's `__init__` sets the `config`, `maps`, `lattice`, `lambda_r`,
    `proposals` (by direction) and `iteration` that these read; it supplies
    `updates`, `record`, `snapshot` and `model_diagnostics`
    (`baseline.ConventionalChain` is the other model).

    The neighbor library is sized from the initial state, by
    `library_margin`, so no set-up fails for want of margin. A chain that
    moves a transform further out still rejects that move, or aborts if
    standardization takes a subject past the library.
    """

    def __init__(self, maps, config, initial_state=None):
        self.config = config
        self.lattice = lattice = common_lattice(maps)
        self.maps = list(maps)
        self.lambda_r = config.lambda_r
        self.iteration = 0
        if initial_state is None:
            initial_state = initialize(self.maps, config)
        self.geom = build_geometry(lattice, config,
                                   library_margin(lattice, initial_state.blocks))
        self.state = initial_state
        n = len(self.state.blocks)
        dim_lie = lattice.dim * (lattice.dim + 1)
        self.proposals = {direction: [AdaptiveProposal(dim_lie) for _ in range(n)]
                          for direction in ("forward", "reverse")}
        refresh_template_weights(self.state, self.geom)
        for blk in self.state.blocks:
            refresh_subject_geometry(blk, self.geom, self.state.factor, self.state.alpha)

    def sweep(self):
        """`updates`, with the proposals frozen after burn-in; ChainAborted on failure."""
        it = self.iteration
        if it >= self.config.burn_in:
            for recs in self.proposals.values():
                for rec in recs:
                    rec.frozen = True
        try:
            self.updates(it)
        except GroupregError as exc:
            raise ChainAborted(f"sweep {it} failed: {exc}", self.snapshot()) from exc
        self.iteration += 1

    def updates(self, it):
        """One sweep's updates, in the order of the module docstring."""
        state, geom, hp, seed = self.state, self.geom, self.config, self.config.seed
        blocks = list(enumerate(state.blocks))
        for i, blk in blocks:
            blk.XT = update_transformed_template(
                blk, state.X, substream(seed, it, _PH_XT, i))
        update_template(state, geom, substream(seed, it, _PH_X))
        for i, blk in blocks:
            update_forward_transform(blk, state, geom, hp, self.proposals["forward"][i],
                                     substream(seed, it, _PH_TFWD, i))
        for i, blk in blocks:
            update_reverse_transform(blk, state, geom, hp, self.proposals["reverse"][i],
                                     substream(seed, it, _PH_TREV, i))
        standardize_forward_transforms(state, geom)
        for i, blk in blocks:
            blk.beta, blk.sigma2 = update_beta_sigma(
                blk, state.X, hp, substream(seed, it, _PH_BETA, i))
        standardize_scales(state)
        update_alpha(state, geom, hp, substream(seed, it, _PH_ALPHA))
        update_rho(state, geom, hp, substream(seed, it, _PH_RHO))

    def record(self):
        """The current state's `SampleStore` fields, and what `model_diagnostics` reads."""
        st = self.state
        fields = (st.X.copy(), np.stack([blk.T.matrix for blk in st.blocks]),
                  np.stack([blk.T_r.matrix for blk in st.blocks]),
                  [blk.beta for blk in st.blocks], [blk.sigma2 for blk in st.blocks],
                  st.alpha, st.rho)
        return fields, (pointwise_log_lik(st.X, st.blocks), self.inverse_consistency_error())

    def snapshot(self):
        state = self.state
        return {
            "iteration": self.iteration,
            "alpha": state.alpha,
            "rho": state.rho,
            "beta": [blk.beta for blk in state.blocks],
            "sigma2": [blk.sigma2 for blk in state.blocks],
            "transforms": [blk.T.matrix.tolist() for blk in state.blocks],
            "reverse_transforms": [blk.T_r.matrix.tolist() for blk in state.blocks],
        }

    def inverse_consistency_error(self):
        """Mean over subjects of ||H_T H_Tr - I||_F at the current state."""
        gaps = [penalty_terms(blk.T, blk.T_r)[0] for blk in self.state.blocks]
        return float(np.mean(gaps))

    def run(self):
        """Run the configured chain; returns (SampleStore, diagnostics dict)."""
        cfg = self.config
        t_start = time.perf_counter()
        kept = []
        for it in range(cfg.total):
            self.sweep()
            if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
                kept.append(self.record())
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
        """rho acceptance, last scalar values, mean IC error and WAIC of the kept records."""
        st = self.state
        kept_ll, kept_ic = zip(*extras)
        return {
            "rho_acceptance": (st.rho_accepts / st.rho_proposals
                               if st.rho_proposals else float("nan")),
            "alpha_last": st.alpha,
            "rho_last": st.rho,
            "mean_ic_error": float(np.mean(kept_ic)),
            "library_margin": self.geom.library.margin,
            "beta_last": [blk.beta for blk in st.blocks],
            "sigma2_last": [blk.sigma2 for blk in st.blocks],
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

    The ratio is reported as 0 where sd < 1e-12. Posterior-mean transforms
    are Karcher means of the sampled transforms, per subject and direction.
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
