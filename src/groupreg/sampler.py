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

`ChainState` stacks the subjects, one array per field, the transforms as
(N, d + 1, d + 1) stacks of homogeneous matrices, and each phase is one
call for all of them; only the sigma_i^2, beta_i draws loop over subjects.
Each chain owns one generator, `np.random.default_rng(config.seed)`, and
every update draws from it in sweep order: the (N, V) draw of the X(T_i)
takes subject 0's normals first, as a loop over subjects would, and so do
the transform steps (below).

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
lattice), so the step costs O(V w^2) time and O(V w) memory. Q's band slots
are built once per chain (`TemplateBand`, kept in `ChainState.band`), and a
sweep only writes the pair values into the chain's buffers and sums them.
On one core of a 2-core x86-64 machine the step takes ~3 ms per sweep on
28x28 (assembly ~1.4 ms, factor ~1.5 ms) and ~0.2-0.4 ms on the 1D curves
(V = 81 and 201), against ~14 ms on 28x28 for the site-by-site Gibbs loop it
replaced (~18 us per site, O(V)); on synthetic lattices the two cross near
56x56, beyond which the block step is the slower one.

The three banded routines, `dpbtrf`, `dpbtrs` and `dtbtrs`, come from
scipy's LAPACK extension module `scipy.linalg._flapack`, which
`load_flapack` finds in scipy's `linalg` directory and runs on its own.
Importing them from `scipy.linalg.lapack` would run the `scipy.linalg`
package `__init__`, which loads scipy's array-API layer and through it
numpy's lazy submodules (`numpy.f2py`, `numpy.testing`, ...): ~300 modules
and 0.25-0.35 s on a 2-core x86-64 machine, over half of `import
groupreg.cli`, paid by every `groupreg` command. The module is registered
under its own name, so a later `import scipy.linalg` reuses it, and in
either import order the routines are the very objects `scipy.linalg.lapack`
exports.

T_i, T_i^r and the baseline's T_i all move by one Metropolis step on the
affine group, `lie_mh_step`: propose exp(delta) t, delta ~ N(0, adaptive
cov), and accept with log probability min(0, log pi(y) - log pi(x)
+ (d + 1) tr L), L the linear block of delta (`lie_mh_log_acceptance`).
The log targets are densities in the matrix entries of (A, b), and
(d + 1) tr L is the exact log Hastings ratio of this proposal in those
coordinates; no proposal density or reverse increment is evaluated. A
proposal with no real logarithm (`rejected_nolog`) or that moves a template
site out of the neighbor library (`rejected_oob`) is rejected outright.
Given the rest of the state, the subjects' T_i targets are independent, and
so are their T_i^r targets, so one step moves every subject in a direction:
subject by subject it draws delta, then the accept uniform, whether the
proposal is rejected or not, and forms the proposal with the scalar
`lie_exp`; then the log targets of all current transforms, and of all
proposals with a real logarithm (`has_real_log`), are each computed once
over the stacks, and one masked assignment writes the moved subjects back.
The generator, the proposals and the accept decisions are those of a loop
of scalar steps over subjects, and the seeded outputs are bit-identical to
it (`tests/test_sampler.py` keeps the loop as the oracle).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .errors import (DegenerateInput, GroupregError, IllConditioned, InsufficientSamples,
                     NonPositiveScale, OutOfLibraryBounds, SingularTransform)
from .grids import ActivationMap, common_lattice
from .interp import Warp
from .model import build_geometry, penalty_terms, pointwise_log_lik, waic
from .spatial import (CovarianceParams, KrigingFactor, conditional_means,
                      kriging_factor, library_weights, locate_entries, neighbor_distances,
                      nngp_log_density_from_weights, predecessor_weights)
from .store import SampleStore
from .transforms import (AffineTransform, affine_inverse, apply_stack, has_real_log,
                         karcher_mean, lie_exp, standardize)

FLAPACK = "scipy.linalg._flapack"


def load_flapack(directory):
    """scipy's LAPACK extension module, found in `directory`, without running
    the `scipy.linalg` package `__init__`.

    The module is registered in `sys.modules` under its own name, so a later
    `import scipy.linalg` reuses this instance, and an instance already there
    is returned as it is: either way `scipy.linalg.lapack` exports the very
    routines returned here. Raises ImportError naming `directory` if the
    extension is not in it.
    """
    spec = PathFinder.find_spec(FLAPACK, [os.fspath(directory)])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension {FLAPACK} was not found in {directory}",
                          name=FLAPACK)
    module = sys.modules.get(FLAPACK)
    if module is None:
        module = module_from_spec(spec)
        sys.modules[FLAPACK] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[FLAPACK]
            raise
    return module


_flapack = load_flapack(os.path.join(scipy.__path__[0], "linalg"))
dpbtrf, dpbtrs, dtbtrs = _flapack.dpbtrf, _flapack.dpbtrs, _flapack.dtbtrs

ADAPT_TARGET_RATE = 0.234
RHO_STEP = 0.1        # standard deviation of the random-walk rho proposal
LIBRARY_SLACK = 5     # library grid steps beyond the initial transforms' reach
# The one stopping tolerance of `levenberg_marquardt`, used as MINPACK's lmder
# uses ftol, xtol and gtol: on the relative reduction of ||r||^2, the relative
# scaled step and the scaled gradient. At 1e-10 the initial template of the
# 1D and glyph scenarios differs from the one at 1e-14 by at most 3e-5 of its
# largest value, against 4e-4 at 1e-8, for ~25% more LM points.
FIT_TOL = 1e-10


@dataclass
class AdaptiveProposal:
    """Robbins-Monro step-size and empirical covariance for one Lie-MH chain.

    log lambda moves by k^{-0.6} * (accept - 0.234) per proposal during
    burn-in; the proposal covariance is lambda * (cov of accepted deltas
    + 1e-8 I). Both freeze at the end of burn-in so the post-burn-in chain
    is Markov. The bracket moves only when a delta is accepted while
    adapting, so its Cholesky factor is computed once per such delta and
    scaled by sqrt(lambda) for each proposal.
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
    _base_factor: np.ndarray = field(default=None, init=False, repr=False)

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

    def _base_cov(self):
        if self.n_accepted_cov >= 5:
            base = self._m2 / (self.n_accepted_cov - 1)
        else:
            base = np.eye(self.dim)
        return base + 1e-8 * np.eye(self.dim)

    def proposal_cov(self):
        return np.exp(self.log_lambda) * self._base_cov()

    def proposal_factor(self):
        """Lower Cholesky factor of `proposal_cov()`: sqrt(lambda) times the
        factor of the bracket, which is computed once per accepted delta."""
        if self._base_factor is None:
            self._base_factor = np.linalg.cholesky(self._base_cov())
        return np.exp(0.5 * self.log_lambda) * self._base_factor

    def record(self, accepted, delta):
        self.proposals += 1
        self.accepts += int(accepted)
        if self.frozen:
            self.post_proposals += 1
            self.post_accepts += int(accepted)
            return
        gamma = self.k ** -0.6
        self.log_lambda += gamma * ((1.0 if accepted else 0.0) - ADAPT_TARGET_RATE)
        if accepted:
            self._base_factor = None
            d = np.asarray(delta, dtype=float) - self._mean
            self._mean += d / self.n_accepted_cov
            self._m2 += np.outer(d, np.asarray(delta, dtype=float) - self._mean)

    def acceptance_rate(self, post_only=False):
        num, den = ((self.post_accepts, self.post_proposals) if post_only
                    else (self.accepts, self.proposals))
        return num / den if den else float("nan")


@dataclass
class ChainState:
    """The chain's latent state. Subject i has maps[i], beta[i], sigma2[i] and
    row i of the (N, d + 1, d + 1) stacks T and T_r of homogeneous matrices,
    of the (N, V) arrays Y (the map's values), XT (X at T_i(S)), Y_bw (Y_i
    at T_i^r(S)) and F, and of the NNGP caches of T_i(S): library entries
    (N, V), neighbor sets nbr, their distances dist from T_i(S) and weights
    B (N, V, k). `warps[i]` samples maps[i] at T(S) for the reverse step,
    and `band` assembles the X step's precision."""

    X: np.ndarray
    maps: list
    T: np.ndarray
    T_r: np.ndarray
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
    band: TemplateBand = field(default=None, repr=False)   # Q's slot tables and buffers
    rho_proposals: int = 0
    rho_accepts: int = 0

    @property
    def cov(self):
        return CovarianceParams(self.alpha, self.rho)


CACHES = ("dist", "entry", "nbr", "B", "F")   # a subject's NNGP caches in ChainState


def subject_geometry(h, geom, factor, alpha):
    """The library entries of each T(S), their neighbor sets and distances, and (B, F).

    h is an (n, d + 1, d + 1) stack of homogeneous matrices. Returns
    (inside, caches): inside (n,) marks the T that keep every template site
    within the library's margin, and caches = (dist, entry, nbr, B, F), the
    `CACHES` of those T only, stacked, (n_inside, V, ...) each. One lookup,
    one distance call and one weights call cover all n V sites.
    """
    locs = apply_stack(h, geom.locations)
    entry, inside = locate_entries(locs, geom.library)
    inside = inside.all(axis=1)
    if not inside.all():
        locs, entry = locs[inside], entry[inside]
    n, v, d = locs.shape
    dist = neighbor_distances(locs.reshape(-1, d), entry.ravel(), geom.library, geom.locations)
    b, f = library_weights(dist, entry.ravel(), geom.library, factor, alpha)
    k = dist.shape[1]
    return inside, (dist.reshape(n, v, k), entry, geom.library.neighbor_indices[entry],
                    b.reshape(n, v, k), f.reshape(n, v))


def refresh_caches(state, geom):
    """Factor the neighbor patterns at state.rho; set the template's (B, F),
    every subject's NNGP caches for its current T_i, and one `Warp` of each
    subject map at the template sites, for the reverse step. Raises
    OutOfLibraryBounds when a T_i leaves the library."""
    state.warps = [Warp(amap, geom.locations) for amap in state.maps]
    state.factor = kriging_factor(geom.library, geom.predecessor_patterns, state.rho)
    state.tB, state.tF = predecessor_weights(geom.predecessor_patterns, state.factor,
                                             state.alpha)
    inside, caches = subject_geometry(state.T, geom, state.factor, state.alpha)
    if not inside.all():
        raise OutOfLibraryBounds(f"transforms {np.flatnonzero(~inside).tolist()} move a "
                                 "template site outside the neighbor library")
    for name, value in zip(CACHES, caches):
        setattr(state, name, value)
    state.band = TemplateBand(geom, len(state.T))


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


def _template_cols(geom):
    """(m + 1, V) column-first: template row l has columns [l, predecessors],
    the padded predecessor slots pointed at l itself."""
    nsets = geom.neighbor_sets
    own = np.arange(len(nsets))[:, None]
    return np.hstack([own, np.where(nsets >= 0, nsets, own)]).T


def _pair_slots(cols, n_band):
    """Band slot of every upper-triangle column pair of every row.

    cols is column-first, (k, n). Pair (p, q), p <= q, of a row lands at
    [d, j] = [|c_p - c_q|, min(c_p, c_q)] of a Fortran-ordered band with
    n_band rows, flat index j * n_band + d = min * (n_band - 2) + c_p + c_q,
    so every off-diagonal pair is added once, to the lower band. Returns
    (k (k + 1) / 2, n): the pairs in `np.triu_indices` order, rows inside.
    """
    iu, ju = np.triu_indices(len(cols))
    ci, cj = cols[iu], cols[ju]
    return np.minimum(ci, cj) * (n_band - 2) + ci + cj


class _PairFamily:
    """One family of NNGP rows of Q, with k columns each: buffers for the
    rows' (k, n) weights w and w / F and their (n,) 1 / F, and views of this
    family's part of the band's slots and values, (k (k + 1) / 2, n) each."""

    def __init__(self, k, n, slots, values):
        self.iu, self.ju = np.triu_indices(k)
        self.w, self.wf, self.finv = np.empty((k, n)), np.empty((k, n)), np.empty(n)
        shape = (self.iu.size, n)
        self.slots, self.values = slots.reshape(shape), values.reshape(shape)
        self.w_ju = np.empty(shape)

    def fill_values(self):
        """values = (w / F)[iu] * w[ju], from the w and 1 / F the caller wrote."""
        np.multiply(self.w, self.finv, out=self.wf)
        # mode="clip" writes straight into `out`; the default "raise" buffers it.
        np.take(self.wf, self.iu, axis=0, out=self.values, mode="clip")
        np.take(self.w, self.ju, axis=0, out=self.w_ju, mode="clip")
        self.values *= self.w_ju


class TemplateBand:
    """A chain's workspace for the band of Q in `template_conditional`.

    Q sums w w^T / F over two families of NNGP rows: the template's
    (`_template_cols`) and the subjects', each the neighbor set of its
    library entry. Neither family's columns ever change, so the band slots
    of their pairs (`_pair_slots`) are built once, per template row and per
    library entry, and built again only when the band height that a state
    needs changes. A call gathers the subjects' slots by entry, writes every
    pair's value into buffers held here, and sums all pairs, template family
    first, with one bincount. Of size O(V w) it allocates only the band.
    """

    def __init__(self, geom, n_subjects):
        v = geom.locations.shape[0]
        k_t, k = geom.neighbor_sets.shape[1] + 1, geom.library.neighbor_indices.shape[1]
        split = k_t * (k_t + 1) // 2 * v
        self.slots = np.empty(split + k * (k + 1) // 2 * n_subjects * v, dtype=np.intp)
        self.values = np.empty(self.slots.size)
        self.template = _PairFamily(k_t, v, self.slots[:split], self.values[:split])
        self.template.w[0] = 1.0
        self.subjects = _PairFamily(k, n_subjects * v, self.slots[split:], self.values[split:])
        self.template_span = int(np.max(np.ptp(_template_cols(geom), axis=0)))
        self.entry_span = np.ptp(geom.library.neighbor_indices, axis=1)
        self.n_band = 0               # the band height the slot tables are built for
        self.entry_slots = None       # (k (k + 1) / 2, n_lib)

    def precision(self, state, geom):
        """Sum of w w^T / F over both families: the (n_band, V) band, Fortran-ordered."""
        n_band = 1 + max(self.template_span, int(np.max(self.entry_span[state.entry])))
        if n_band != self.n_band:
            self.template.slots[...] = _pair_slots(_template_cols(geom), n_band)
            self.entry_slots = _pair_slots(geom.library.neighbor_indices.T, n_band)
            self.n_band = n_band
        np.take(self.entry_slots, state.entry.ravel(), axis=1, out=self.subjects.slots,
                mode="clip")
        np.negative(state.tB.T, out=self.template.w[1:])
        np.divide(1.0, state.tF, out=self.template.finv)
        np.copyto(self.subjects.w, state.B.reshape(-1, state.B.shape[-1]).T)
        np.divide(1.0, state.F.ravel(), out=self.subjects.finv)
        self.template.fill_values()
        self.subjects.fill_values()
        v = state.X.size
        return np.bincount(self.slots, self.values, n_band * v).reshape(v, n_band).T


def template_conditional(state, geom):
    """Precision Q and linear term b of X | rest ~ N(Q^-1 b, Q^-1).

    Q = (I - B_t)^T F_t^-1 (I - B_t) + sum_i B_i^T F_i^-1 B_i
        + (sum_i beta_i^2 / sigma_i^2) I,
    b = sum_i B_i^T (XT_i / F_i) + sum_i beta_i Y_bw,i / sigma_i^2.
    Template row l has columns [l, predecessors] and weights [1, -B_t]; the
    padded predecessor slots carry B = 0 and are pointed at l itself. Subject
    rows are the library sets state.nbr with weights state.B, all subjects'
    rows one family. Q is returned in LAPACK lower-band storage,
    Fortran-ordered, Q[j + d, j] at [d, j], assembled by `state.band`.

    Its bandwidth is the widest column span of this state's rows, not of
    every library entry: on 28x28 the state's rows need 169 band rows and the
    library's widest entry 225, and `dpbtrf` takes ~1.5 ms at 169 against
    ~2.2 ms at 225 (one core of a 2-core x86-64 machine). The slot tables
    are rebuilt when the height changes, which no measured chain did. A call
    costs ~1.4 ms on 28x28, most of it the bincount into the ~1 MB band, and
    ~0.1-0.4 ms on the 1D curves; besides the band it allocates only O(N V k).
    """
    v = state.X.size
    k = state.nbr.shape[-1]
    xt_f = (state.XT / state.F).ravel()
    b = np.bincount(state.nbr.ravel(), (state.B.reshape(-1, k) * xt_f[:, None]).ravel(), v)
    b += (state.beta / state.sigma2) @ state.Y_bw
    ab = state.band.precision(state, geom)
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
    """log acceptance of y = exp(delta) x, delta from a symmetric density;
    per row, for (n,) log targets and (n, d (d + 1)) deltas.

    The log targets are densities in the matrix entries of (A, b), where the
    proposal density is q(y | x) = N(delta) / |det d vec(y) / d delta|. That
    Jacobian factors as det(dexp_delta) |det A_y|^d, and the reverse move is
    -delta, so the Gaussian terms cancel. Over the eigenvalues lam of
    ad_delta, dexp_delta has eigenvalues (e^lam - 1) / lam, so
    det(dexp_delta) / det(dexp_-delta) = e^{tr ad_delta} = e^{tr L}, L the
    linear block of delta; and |det A_y / det A_x|^d = e^{d tr L}. Hence
    log q(x | y) - log q(y | x) = (d + 1) tr L. A NaN log target gives NaN,
    which no accept draw is below.
    """
    if delta.shape[-1] == 2:
        return np.minimum(0.0, log_new - log_old + 2.0 * delta[..., 0])
    return np.minimum(0.0, log_new - log_old + 3.0 * (delta[..., 0] + delta[..., 4]))


def forward_log_target(h, h_r, x, xt, weights, geom, hp):
    """T-dependent part of the joint, per subject: prior, NNGP terms of X(T), both penalties.

    h and h_r are (n, d + 1, d + 1) stacks of the subjects' T and T^r, xt
    their (n, V) X(T) values and `weights` the (nbr, B, F) of their T(S),
    stacked: the state's caches, or `subject_geometry(h, ...)[1][2:]` for
    proposals. Returns (n,).
    """
    nbr, b, f = weights
    p1, p2 = penalty_terms(h, h_r)
    return (geom.prior_T.log_density(h)
            + nngp_log_density_from_weights(x, xt, nbr, b, f, axis=-1)
            - hp.lambda_r * (p1 + p2))


def reverse_log_target(h_r, h, x, y_bw, beta, sigma2, geom, hp):
    """T^r-dependent part, per subject: prior, SSD of y_bw = Y(T^r(S))
    (1/2 weighted), both penalties; stacked as in `forward_log_target`, with
    the subjects' (n, V) y_bw and (n,) beta and sigma2. Returns (n,)."""
    ssd = np.sum((y_bw - beta[:, None] * x) ** 2, axis=1)
    p1, p2 = penalty_terms(h, h_r)
    return (geom.prior_Tr.log_density(h_r)
            - 0.5 * ssd / sigma2 - hp.lambda_r * (p1 + p2))


def lie_mh_step(h, log_old, log_target, adapts, rng):
    """One random-walk Metropolis step H_i -> exp(delta_i) H_i of each of n
    independent rows on the affine group.

    `h` holds the rows' homogeneous matrices, (n, d + 1, d + 1), `log_old`
    (n,) their log targets and `adapts` their `AdaptiveProposal`s. Row by
    row, in order, the step draws delta_i, then the accept uniform, and
    forms the proposal, so it takes the generator's numbers as n scalar
    steps would. A proposal with no real logarithm (`has_real_log`) is
    rejected (`rejected_nolog`) unevaluated. `log_target(rows, proposals)`
    gets the other rows' indices, ascending, and their proposals' stack; it
    returns (inside, log_new, payload): inside marks the proposals that stay
    in the neighbor library (the others count in `rejected_oob`), and
    log_new and payload, a tuple of arrays, are stacked over those only.
    Returns (accepted, h_new, payload): the (n,) accept mask, and the new
    matrices and the payload's arrays of the accepted rows, in row order,
    for the caller's `h[accepted] = h_new`.
    """
    n, dim = len(h), adapts[0].dim
    deltas, draws, proposals = np.empty((n, dim)), np.empty(n), np.empty(h.shape)
    for i, adapt in enumerate(adapts):
        deltas[i] = adapt.proposal_factor() @ rng.standard_normal(dim)
        draws[i] = np.log(rng.uniform())
        proposals[i] = lie_exp(deltas[i]) @ h[i]
    real = np.array([has_real_log(p) for p in proposals])
    inside = np.zeros(n, dtype=bool)
    accepted = np.zeros(n, dtype=bool)
    rows = np.flatnonzero(real)
    payload = ()
    if rows.size:
        in_library, log_new, payload = log_target(rows, proposals[rows])
        rows = rows[in_library]
        inside[rows] = True
        keep = draws[rows] < lie_mh_log_acceptance(log_old[rows], log_new, deltas[rows])
        accepted[rows] = keep
        payload = tuple(p[keep] for p in payload)
    for i, adapt in enumerate(adapts):
        if not real[i]:
            adapt.rejected_nolog += 1
        elif not inside[i]:
            adapt.rejected_oob += 1
        adapt.record(accepted[i], deltas[i])
    return accepted, proposals[accepted], payload


def update_forward_transform(state, geom, hp, adapts, rng):
    """One Lie-MH step of every T_i, one `lie_mh_step` for all subjects.

    On accept, T_i and row i of its NNGP caches change. Returns the (N,)
    accept mask.
    """
    def target(rows, proposals):
        inside, caches = subject_geometry(proposals, geom, state.factor, state.alpha)
        kept = rows[inside]
        return inside, forward_log_target(proposals[inside], state.T_r[kept], state.X,
                                          state.XT[kept], caches[2:], geom, hp), caches

    log_old = forward_log_target(state.T, state.T_r, state.X, state.XT,
                                 (state.nbr, state.B, state.F), geom, hp)
    accepted, h_new, caches = lie_mh_step(state.T, log_old, target, adapts, rng)
    state.T[accepted] = h_new
    for name, value in zip(CACHES, caches):
        getattr(state, name)[accepted] = value
    return accepted


def update_reverse_transform(state, geom, hp, adapts, rng):
    """One Lie-MH step of every T_i^r, one `lie_mh_step` for all subjects.

    Each live proposal samples its subject's map through `state.warps[i]`.
    On accept, T_i^r and row i of Y_bw change. Returns the (N,) accept mask.
    """
    def target(rows, proposals):
        y_bw = np.stack([state.warps[i](h_r) for i, h_r in zip(rows, proposals)])
        log_new = reverse_log_target(proposals, state.T[rows], state.X, y_bw,
                                     state.beta[rows], state.sigma2[rows], geom, hp)
        return np.ones(rows.size, dtype=bool), log_new, (y_bw,)

    log_old = reverse_log_target(state.T_r, state.T, state.X, state.Y_bw, state.beta,
                                 state.sigma2, geom, hp)
    accepted, h_new, y_bw = lie_mh_step(state.T_r, log_old, target, adapts, rng)
    state.T_r[accepted] = h_new
    if y_bw:
        state.Y_bw[accepted] = y_bw[0]
    return accepted


def standardize_forward_transforms(h, h_r):
    """T_i M^-1 and M T_i^r, M the Karcher mean of the T_i, for the stacks
    h and h_r of the T_i and the T_i^r (`standardize`).

    The forward transforms get Karcher mean identity, and each pair keeps
    its H_T H_Tr, so the inverse-consistency error of a draw is unchanged.
    """
    h_std, mean = standardize(h)
    return h_std, mean @ h_r


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


def coarse_grid(lattice):
    """Deterministic coarse search grid over the affine group, the set-up's
    first candidates for each subject's transform (`fit_affine`): a stack of
    homogeneous matrices."""
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
    return np.array(out)


def levenberg_marquardt(point, p):
    """Minimize ||r(p)||^2 from p by Levenberg-Marquardt; returns (p, ||r(p)||^2).

    `point(p)` returns the residuals r (m,) and their Jacobian J (m, n) at p,
    both from one call. Each step h solves (J^T J + mu D) h = -J^T r, D the
    largest diagonal of J^T J met so far (Marquardt's scaling, kept as
    MINPACK's lmder keeps it), and mu follows Nielsen's update (Madsen,
    Nielsen & Tingleff 2004, Alg. 3.16): with gain ratio rho > 0 the step is
    taken and mu shrinks by max(1/3, 1 - (2 rho - 1)^3), otherwise mu grows
    by nu and nu doubles. A point whose residuals are not finite is never
    taken. With FIT_TOL for each tolerance it stops as lmder does: when the
    actual and the predicted relative reductions of ||r||^2 are both below
    it (ftol), when the step is below it relative to p, both scaled by
    D^1/2 (xtol), or when the cosine between r and each column of J is
    (gtol); and after 100 (n + 1) points, lmder's default cap.
    """
    n = p.size
    r, jac = point(p)
    f = float(r @ r)
    scale = None
    mu, nu = 3.0, 2.0      # of mu0 in 1e-9 .. 10, 3 took the fewest points over the set-ups
    taken = True
    for _ in range(100 * (n + 1) - 1):
        if taken:
            a, g = jac.T @ jac, jac.T @ r
            diag = np.diag(a)
            # gtol, which a zero residual meets; and a start that is not finite
            if not np.isfinite(f) or np.all(np.abs(g) <= FIT_TOL * np.sqrt(f * diag)):
                break
            scale = np.where(diag > 0, diag, 1.0) if scale is None else np.maximum(scale, diag)
        h = np.linalg.solve(a + mu * np.diag(scale), -g)
        if np.sqrt(scale @ (h * h)) <= FIT_TOL * np.sqrt(scale @ (p * p)):
            break
        pred = float(h @ (mu * scale * h - g))
        if not pred > 0.0:
            break
        p_new = p + h
        r_new, jac_new = point(p_new)
        f_new = float(r_new @ r_new)
        rho = (f - f_new) / pred
        done = abs(f - f_new) <= FIT_TOL * f and pred <= FIT_TOL * f and rho <= 2.0
        taken = rho > 0.0
        if taken:
            p, r, jac, f = p_new, r_new, jac_new, f_new
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        if done:
            break
    return p, f


def fit_affine(y_map, x_map, beta, start, grid=()):
    """Homogeneous matrix of the affine transform minimizing ||Y - beta X(T)||^2:
    the best of `start` and the candidates of `grid` (`coarse_grid`), refined
    by Levenberg-Marquardt.

    The refinement (`levenberg_marquardt`) runs over the top d rows of the
    homogeneous matrix, with the exact Jacobian of the residuals: Catmull-Rom
    interpolation is C^1, so the objective is a smooth sum of squares. One
    `Warp` is built per call, and each LM point samples the map once, for
    its residuals and its Jacobian together. The refined matrix is returned
    only if it makes a valid `AffineTransform` and its objective is no worse
    than the best candidate's; otherwise the best candidate is.
    """
    warp = Warp(x_map, y_map.lattice.locations())
    y = y_map.values

    def objective(h):
        xt = warp(h)
        r = y - beta * xt
        return float(r @ r)

    candidates = [start, *grid]
    objs = [objective(h) for h in candidates]
    best = candidates[int(np.argmin(objs))]
    d = len(best) - 1

    def point(p):
        xt, jac = warp.value_and_jacobian(p.reshape(d, d + 1))
        return beta * xt - y, beta * jac

    p, f = levenberg_marquardt(point, best[:d].ravel())
    if not f <= min(objs):
        return best
    h = np.eye(d + 1)
    h[:d] = p.reshape(d, d + 1)
    try:
        return AffineTransform(h).matrix
    except SingularTransform:
        return best


def initialize(maps, config):
    """Alternating template/transform initialization (deterministic).

    Repeats: fit each T_i by warping beta_i X to Y_i (`fit_affine`: the best
    of the previous T_i and, on the first pass only, the coarse grid, refined
    by Levenberg-Marquardt on every pass), re-fit beta_i by no-intercept
    regression, standardize T at identity and beta at 1, then re-estimate X
    as the mean of back-warped maps Y_i(T_i^{-1})/beta_i. Stops after
    config.init_iters passes or when the template change drops below 1e-4
    relative. Needs only the maps' lattice: the neighbor library is sized
    afterwards from the transforms found here (`library_margin`).

    Every warp goes through a prebuilt `Warp`: one per subject map for the
    back-warps, built once, and one per pass for X(T_i) (besides the one
    each `fit_affine` call builds for its objective and its Jacobian).
    """
    lattice = common_lattice(maps)
    for amap in maps:
        if np.ptp(amap.values) == 0.0:
            raise DegenerateInput("constant map: scale regression undefined")

    pts = lattice.locations()
    back = [Warp(amap, pts) for amap in maps]
    x = np.mean([amap.values for amap in maps], axis=0)
    n = len(maps)
    ts = np.array([np.eye(lattice.dim + 1)] * n)
    betas = np.ones(n)

    grid = coarse_grid(lattice)
    for it in range(config.init_iters):
        x_map = ActivationMap(lattice, x)
        ts = np.array([fit_affine(maps[i], x_map, betas[i], ts[i], grid if it == 0 else ())
                       for i in range(n)])
        warp = Warp(x_map, pts)
        for i in range(n):
            betas[i] = fit_scale(maps[i].values, warp(ts[i]))
        ts, _ = standardize(ts)
        betas = betas / np.mean(betas)
        x_new = np.mean([back[i](affine_inverse(ts[i])) / betas[i] for i in range(n)],
                        axis=0)
        rel = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-12)
        x = x_new
        if rel < 1e-4:
            break

    x_map = ActivationMap(lattice, x)
    ts_r = np.array([affine_inverse(t) for t in ts])
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


def library_margin(lattice, h):
    """Library margin in grid steps that holds every T_i(S), plus LIBRARY_SLACK,
    for the stack h of the T_i.

    The overshoot is how far any transformed site lies outside the lattice's
    bounding box, in grid steps of any axis; the margin is its ceiling plus
    the slack, which leaves room for the chain's first moves.
    """
    locs, last = lattice.locations(), np.asarray(lattice.shape) - 1
    u = lattice.to_index_coords(apply_stack(h, locs).reshape(-1, lattice.dim))
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
        update_forward_transform(state, geom, hp, self.proposals["forward"], rng)
        update_reverse_transform(state, geom, hp, self.proposals["reverse"], rng)
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
        h, h_r = standardize_forward_transforms(st.T, st.T_r)
        betas, x, alpha = standardize_scales(st.X, st.beta, st.alpha)
        fields = (x, h, h_r, betas, st.sigma2.copy(), alpha, st.rho)  # sigma2 changes in place
        ic_error = np.mean(penalty_terms(st.T, st.T_r)[0])
        return fields, (pointwise_log_lik(st), ic_error)

    def snapshot(self):
        state = self.state
        return {
            "iteration": self.iteration,
            "alpha": state.alpha,
            "rho": state.rho,
            "beta": state.beta.tolist(),
            "sigma2": state.sigma2.tolist(),
            "transforms": state.T.tolist(),
            "reverse_transforms": state.T_r.tolist(),
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
    mean_fwd = [AffineTransform(karcher_mean(store.H_fwd[:, i]))
                for i in range(store.n_subjects)]
    mean_rev = [AffineTransform(karcher_mean(store.H_rev[:, i]))
                for i in range(store.n_subjects)]
    return PosteriorSummary(mean=mean, sd=sd, ratio=ratio, lower=lower,
                            upper=upper, level=level,
                            mean_forward=mean_fwd, mean_reverse=mean_rev)
