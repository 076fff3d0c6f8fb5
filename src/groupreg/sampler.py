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
call for all of them. The chain's one generator, seeded by config.seed,
serves every update in sweep order, one call per quantity for all subjects:
the X(T_i), X, each transform step's deltas and then its accept uniforms
(below), every sigma_i^2, every beta_i, alpha, and rho's step and accept
uniform.

The model's NNGP rows form one table in the state, `nbr`, `B` and `F`,
(N + 1, V, k) with k = min(m, V): family 0 holds the template's rows, site
l given its ordered predecessors, and family i the rows of X(T_i(s_l))
given its library entry's neighbor set. The transform steps, the X(T_i)
draw and the X step's precision read families 1..N, the view `B[1:]`. The
weights come from the pattern cache (`spatial.KrigingFactor`) kept in
`ChainState.factor`, one `spatial.library_weights` path for both kinds of
row. The factor is built for the current rho at construction and for each
rho proposal, kept on accept and dropped on reject; alpha only rescales F.
The distances from each T_i(S) to its neighbor sets do not depend on rho,
so the state keeps them, `ChainState.dist` (N, V, k), in place of the
transformed sites: `subject_geometry` computes them, a forward accept
stores them, and a rho proposal only inverts the patterns the table uses,
one matrix each, and exponentiates the cached distances (`rho_weights`).
The alpha step and each rho proposal take the conditional means B x(N) of
the whole table in one `conditional_means` call, and sum over it once; rho's
current-state target reuses the means that the alpha step computed in the
same sweep, from the same X, X(T_i), neighbor sets and weights: alpha only
rescales F.

X | rest is Gaussian with a sparse banded precision Q (`template_conditional`)
and is drawn exactly in one block step (Rue 2001): a LAPACK banded Cholesky
Q = L L^T, then x = Q^-1 b + L^-T z. The band numbers the sites in reverse
Cuthill-McKee order (`band_order`, George & Liu 1981), built once per chain
from its first state's rows, or row-major where no order is narrower, as on
every 1D lattice; the draw is made in that order and X is read back by
site. The bandwidth w is the widest span of this sweep's NNGP rows in that
order: ~113 band rows on a 28x28 lattice, where row-major needs 169, set
by ~180 subject rows that run down the side edges. So the step costs O(V w^2)
time and O(V w) memory. Q's band slots are built once per chain
(`TemplateBand`, kept in `ChainState.band`); a sweep writes the pair values
into the chain's buffers and sums them, and Q's NNGP part is kept until rho
or a T_i moves, then rescaled by 1/alpha (`TemplateBand.precision`). On one
core of a 2-core x86-64 machine, on a 28x28 glyph state, the step takes
~1.3 ms on a sweep that reuses the kept part (assembly ~0.15 ms) and
~3 ms on one that sums anew (assembly ~1.1 ms, factor ~1.1 ms), against
~4 ms in row-major order with a sum per sweep (assembly ~1.2 ms, factor
~1.8 ms), and ~0.2-0.4 ms on the 1D curves (V = 81 and 201). The
site-by-site Gibbs loop it replaced took ~14 ms on 28x28 (~18 us per site,
O(V)); on synthetic lattices in row-major order the two crossed near
56x56, beyond which the block step was the slower one.

The three banded routines, `dpbtrf`, `dpbtrs` and `dtbtrs`, and the
set-up's dense solve, `dgesv` (`gesv`), come from scipy's LAPACK extension
module `scipy.linalg._flapack`, which `load_flapack` finds in scipy's
`linalg` directory and runs on its own.
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
target is the sum of terms of the transforms alone, the transform's log
prior and the pair's penalty (`transform_terms`), and of a term that reads
X: the NNGP density of X(T_i) forward, the SSD of Y(T_i^r(S)) in reverse.
Each target is one module-level function of the state and the proposals,
which returns the log targets of the current transforms and of the
proposals together: `forward_target`, `reverse_target` and the baseline's
`conventional_target`; rho's is `rho_target`. It evaluates the terms of
the transforms alone in one stacked call, current transforms first, then
proposals; the current transforms' data terms read the caches the state
keeps (its NNGP rows, Y_bw), and the proposals' are computed and returned
as the payload an accept writes into those caches. A step hands its target
to `lie_mh_step` with `functools.partial`, together with the arrays an
accept writes, and `audit.target_audit` and `audit.detailed_balance_audit`
call the same functions, so the audit checks the code the sweep runs. A
proposal with no real logarithm (`rejected_nolog`) or that moves a template
site out of the neighbor library (`rejected_oob`) is rejected outright.
Given the rest of the state, the subjects' T_i targets are independent, and
so are their T_i^r targets, so one step moves every subject in a direction:
it draws every subject's delta from one (n, dim) block of normals, then
every accept uniform from one (n,) block, whether a proposal is rejected or
not, and forms the proposals with the scalar `lie_exp`; then the log
targets of all current transforms, and of all proposals with a real
logarithm (`has_real_log`), are computed by one target call, and one
masked assignment per array writes the moved subjects back. The reverse
step samples every live proposal's map in one call of one `Warp` of all
subject maps (`ChainState.warps`). Each direction's adaptive proposal state
is one `AdaptiveProposal` over its subjects, arrays with one row per
subject: a step reads every row's Cholesky factor from it once and records
all outcomes in one call. Fed the block's draws, a loop of scalar steps
over subjects, each with a one-row record, makes the same proposals and
accept decisions bit for bit (`tests/test_sampler.py` keeps that loop as
the oracle).
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .errors import (DegenerateInput, GroupregError, IllConditioned, InsufficientSamples,
                     NonPositiveScale, OutOfLibraryBounds, SingularTransform)
from .grids import ActivationMap, common_lattice
from .interp import Warp
from .model import WaicAccumulator, build_geometry, penalty_terms, pointwise_log_lik
from .spatial import (CovarianceParams, KrigingFactor, conditional_means,
                      kriging_factor, library_weights, locate_entries, neighbor_distances,
                      nngp_log_density_from_weights)
from .store import SampleStore
from .transforms import (AffineTransform, affine_inverse, apply_stack, composition_identity_gap,
                         has_real_log, karcher_mean, lie_exp, standardize)

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
dgesv, dpbtrf, dpbtrs, dtbtrs = (_flapack.dgesv, _flapack.dpbtrf, _flapack.dpbtrs,
                                 _flapack.dtbtrs)

ADAPT_TARGET_RATE = 0.234
RHO_STEP = 0.1        # standard deviation of the random-walk rho proposal
LIBRARY_SLACK = 5     # library grid steps beyond the initial transforms' reach
# The default stopping tolerance of `lm_points`, used as MINPACK's lmder
# uses ftol, xtol and gtol: on the relative reduction of ||r||^2, the relative
# scaled step and the scaled gradient. The baseline's one-pass set-up and the
# symmetric set-up's last pass fit at it. At 1e-10 the initial template of the
# 1D and glyph scenarios differs from the one at 1e-14 by at most 3e-5 of its
# largest value, against 4e-4 at 1e-8, for ~25% more LM points.
FIT_TOL = 1e-10
# `initialize`'s stop rule, on the relative change of the template over a
# pass. Every pass up to and including the first whose change falls below
# it fits at LOOSE_TOL, two orders finer than the rule: a finer fit is not
# kept when the next pass refits against a moved template. The pass after
# that one, or the pass at `init_iters`, fits at FIT_TOL and is the last.
INIT_TOL = 1e-4
LOOSE_TOL = INIT_TOL / 100


class AdaptiveProposal:
    """Robbins-Monro step size and empirical covariance of the n rows of one
    Lie-MH block, each row a chain of its own, held as arrays over the rows.

    Row i's log lambda moves by k^{-0.6} * (accept_i - 0.234) per proposal
    during burn-in, k the block's proposals so far (every row proposes once
    per step); its proposal covariance is lambda_i * (cov of its accepted
    deltas + 1e-8 I). Both freeze, for the whole block, at the end of
    burn-in so the post-burn-in chain is Markov. A row's bracket moves only
    when one of its deltas is accepted while adapting, so its Cholesky
    factor is computed once per such delta (the `stale` rows) and scaled by
    sqrt(lambda_i) for each proposal. Row i's fields are those of a one-row
    record that saw only row i's outcomes, bit for bit.
    """

    def __init__(self, n, dim):
        self.dim = dim
        self.log_lambda = np.full(n, np.log(1e-4))
        self.frozen = False
        self.proposals = self.post_proposals = 0
        self.accepts, self.post_accepts = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
        self.rejected_oob, self.rejected_nolog = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
        self._mean, self._m2 = np.zeros((n, dim)), np.zeros((n, dim, dim))
        self._base_factor = np.zeros((n, dim, dim))
        self.stale = np.ones(n, dtype=bool)

    def _base_cov(self, rows):
        """The bracket of `rows`, (len(rows), dim, dim)."""
        n_cov = (self.accepts - self.post_accepts)[rows, None, None]  # accepted while adapting
        eye = np.eye(self.dim)
        base = np.where(n_cov >= 5, self._m2[rows] / np.maximum(n_cov - 1, 1), eye)
        return base + 1e-8 * eye

    def proposal_cov(self):
        return np.exp(self.log_lambda)[:, None, None] * self._base_cov(slice(None))

    def proposal_factor(self):
        """Lower Cholesky factors of `proposal_cov()`, (n, dim, dim): sqrt(lambda)
        times the factor of the bracket, refactored for the stale rows only."""
        rows = np.flatnonzero(self.stale)
        if rows.size:
            self._base_factor[rows] = np.linalg.cholesky(self._base_cov(rows))
            self.stale[rows] = False
        return np.exp(0.5 * self.log_lambda)[:, None, None] * self._base_factor

    def record(self, accepted, deltas, real, inside):
        """Count one step of every row: the (n,) masks of accepted proposals,
        of those with a real logarithm and of those inside the library, and
        the (n, dim) deltas; adapt unless frozen."""
        self.rejected_nolog += ~real
        self.rejected_oob += real & ~inside
        self.proposals += 1
        self.accepts += accepted
        if self.frozen:
            self.post_proposals += 1
            self.post_accepts += accepted
            return
        gamma = (self.proposals - self.post_proposals) ** -0.6
        self.log_lambda += gamma * (accepted - ADAPT_TARGET_RATE)
        rows = np.flatnonzero(accepted)
        self.stale[rows] = True
        d = deltas[rows] - self._mean[rows]
        self._mean[rows] += d / (self.accepts - self.post_accepts)[rows, None]
        self._m2[rows] += d[:, :, None] * (deltas[rows] - self._mean[rows])[:, None, :]

    def acceptance_rate(self, post_only=False):
        """Each row's accepted fraction of its proposals, (n,); NaN before the first."""
        num, den = ((self.post_accepts, self.post_proposals) if post_only
                    else (self.accepts, self.proposals))
        return num / den if den else np.full(num.shape, np.nan)


@dataclass
class ChainState:
    """The chain's latent state. Subject i has maps[i], beta[i], sigma2[i] and
    row i of the (N, d + 1, d + 1) stacks T and T_r of homogeneous matrices,
    of the (N, V) arrays Y (the map's values), XT (X at T_i(S)) and Y_bw (Y_i
    at T_i^r(S)), and of the caches of T_i(S): library entries (N, V) and
    the distances dist (N, V, k) from T_i(S) to their neighbor sets. The
    NNGP table holds every row of the model's NNGP terms, neighbor sets nbr
    and weights B (N + 1, V, k), variances F (N + 1, V): family 0 is the
    template's rows (the padded predecessor slots at the site itself, with
    B = 0), family i + 1 subject i's. `warps`, `Warp(maps)`, given with the
    state, samples every maps[i] at T(S), S the template sites, which are
    the maps' own lattice sites, for the reverse step, and `band` assembles
    the X step's precision."""

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
    warps: Warp = field(repr=False)
    dist: np.ndarray = field(default=None, repr=False)
    entry: np.ndarray = field(default=None, repr=False)
    nbr: np.ndarray = field(default=None, repr=False)
    B: np.ndarray = field(default=None, repr=False)
    F: np.ndarray = field(default=None, repr=False)
    factor: KrigingFactor = field(default=None, repr=False)  # pattern cache at rho
    band: TemplateBand = field(default=None, repr=False)   # Q's slot tables and buffers
    rho_proposals: int = 0
    rho_accepts: int = 0
    init_passes: int = 0                     # set-up passes run (`initialize`)
    init_rel_change: float = float("nan")    # the last set-up pass's relative template change

    @property
    def cov(self):
        return CovarianceParams(self.alpha, self.rho)


def subject_caches(state):
    """The subjects' rows of the state's NNGP caches, (N, ...) each: dist,
    entry, and families 1..N of the NNGP table, as views."""
    return state.dist, state.entry, state.nbr[1:], state.B[1:], state.F[1:]


def table_values(state):
    """The values the NNGP table's rows model, (N + 1, V): X, then every X(T_i)."""
    return np.concatenate([state.X[None], state.XT])


def subject_geometry(h, geom, factor, alpha):
    """The library entries of each T(S), their neighbor sets and distances, and (B, F).

    h is an (n, d + 1, d + 1) stack of homogeneous matrices. Returns
    (inside, caches): inside (n,) marks the T that keep every template site
    within the library's margin, and caches = (dist, entry, nbr, B, F), the
    `subject_caches` of those T only, stacked, (n_inside, V, ...) each. One lookup,
    one gather of the neighbor sets, one distance call and one weights call
    cover all n V sites. T(S) is formed axis-major, (n, d, V), as `Warp`
    forms it, with the bits of `apply_stack`, and handed on as an (n, V, d)
    view, so the lookup and the distances read each axis in contiguous rows.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # as in `apply_stack`
        locs = (h[:, :-1, :-1] @ geom.locations.T + h[:, :-1, -1:]).transpose(0, 2, 1)
    entry, inside = locate_entries(locs, geom.library)
    inside = inside.all(axis=1)
    if not inside.all():
        locs, entry = locs[inside], entry[inside]
    n, v = entry.shape
    nbr = np.take(geom.library.neighbor_indices, entry, axis=0)
    dist = neighbor_distances(locs, nbr, geom.locations)
    k = dist.shape[-1]
    b, f = library_weights(dist.reshape(-1, k), np.take(geom.library.pattern_ids, entry.ravel()),
                           geom.library, factor, alpha)
    return inside, (dist, entry, nbr, b.reshape(n, v, k), f.reshape(n, v))


def transform_terms(prior, h, other):
    """The terms of a transform step's log target that depend on the
    transforms alone, per row: the log density under `prior` of each matrix
    of the stack h, and the penalty sum ||H H_o - I||_F + ||H_o H - I||_F
    of each pair with the stack `other` of the other direction's transforms;
    (n,) each. A row's terms do not depend on the other rows, so a target
    takes its current transforms' and its proposals' from one call on both
    stacked; the penalty sum is the same float in either order of the pair.
    """
    p1, p2 = penalty_terms(h, other)
    return prior.log_density(h), p1 + p2


def refresh_caches(state, geom):
    """Factor the pattern table at state.rho; set the state's NNGP caches,
    the table for the template and every subject's current transform (its
    (B, F) from `rho_weights`, the one path that fills them). The state's
    `warps`, `Warp(state.maps)`, comes with it (`initialize` hands on the
    one it built), so none is built here. Raises OutOfLibraryBounds when a
    T_i leaves the library."""
    state.factor = kriging_factor(geom.library, state.rho)
    inside, (state.dist, state.entry, nbr, _, _) = subject_geometry(state.T, geom, state.factor,
                                                                    state.alpha)
    if not inside.all():
        raise OutOfLibraryBounds(f"transforms {np.flatnonzero(~inside).tolist()} move a "
                                 "template site outside the neighbor library")
    state.nbr = np.concatenate([geom.predecessors.nbr[None], nbr])
    state.B, state.F = rho_weights(state, geom, state.factor)
    state.band = TemplateBand(geom, state.entry)


# ---------------------------------------------------------------------------
# Gibbs conditionals
# ---------------------------------------------------------------------------

def transformed_template_conditional(state):
    """Mean and variance of X(T_i(s_l)) | rest, (N, V) each.

    Precision beta^2/sigma^2 + 1/F, mean term beta*Y_l/sigma^2 + B x(N)/F:
    the beta-consistent form, reducing to the flat-scale formula at beta=1.
    """
    beta, sigma2 = state.beta[:, None], state.sigma2[:, None]
    _, _, nbr, b, f = subject_caches(state)
    prec = beta ** 2 / sigma2 + 1.0 / f
    lin = beta * state.Y / sigma2 + conditional_means(state.X, nbr, b) / f
    var = 1.0 / prec
    return lin * var, var


def update_transformed_template(state, rng):
    """Draw every X(T_i) at once; the (N, V) normal draw takes subject 0's row first."""
    mean, var = transformed_template_conditional(state)
    state.XT = mean + np.sqrt(var) * rng.standard_normal(mean.shape)
    return state.XT


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


def _coupling_graph(cols, n_band, v):
    """The graph on the V template sites in which two sites are adjacent when
    one row of `cols` holds both; each array of `cols` is a family's rows,
    column-first, (c, n), and every row fits a band of n_band rows. The pairs
    are read off one 0/1 band over the rows' `_pair_slots`. Returns the (E,)
    pairs (j, i), j < i, each site's neighbors, a (V, max degree) table
    padded with V, and the (V,) degrees."""
    mark = np.zeros(n_band * v, dtype=bool)
    for c in cols:
        mark[_pair_slots(c, n_band)] = True
    j, d = np.divmod(np.flatnonzero(mark), n_band)
    j, i = j[d > 0], (j + d)[d > 0]
    a, b = np.concatenate([j, i]), np.concatenate([i, j])
    at = np.argsort(a, kind="stable")
    a, b = a[at], b[at]
    degree = np.bincount(a, minlength=v)
    table = np.full((v, degree.max()), v)
    table[a, np.arange(a.size) - np.repeat(np.cumsum(degree) - degree, degree)] = b
    return (j, i), table, degree


def _cuthill_mckee(table, degree, start):
    """The Cuthill-McKee order of the sites from `start` (Cuthill & McKee
    1969): breadth-first, level by level, a level's sites in the order of
    their first neighbor in the level before, those of one neighbor by
    ascending degree, ties by index. A level is one pass over its parents'
    rows of the neighbor table; a site's first parent is the least of its
    slots there. The template's rows make the graph connected: every site
    but the first has a predecessor."""
    v, width = table.shape
    unseen = np.ones(v + 1, dtype=bool)
    unseen[[start, v]] = False              # the padding, V, counts as seen
    first = np.full(v + 1, v * width)
    levels = [np.array([start])]
    while True:
        nbrs = table[levels[-1]].ravel()
        at = np.flatnonzero(unseen[nbrs])
        if not at.size:
            break
        np.minimum.at(first, nbrs[at], at)
        new = np.flatnonzero((first < v * width) & unseen)
        key = ((first[new] // width) * (width + 1) + degree[new]) * v + new
        levels.append(new[np.argsort(key)])
        unseen[levels[-1]] = False
    return np.concatenate(levels)


def band_order(cols, lattice):
    """Each template site's position in Q's band, (V,): the narrowest reverse
    Cuthill-McKee order (George & Liu 1981) of the sites' coupling graph
    (`_coupling_graph`) from the midpoints of the lattice's sides, or
    row-major when none is narrower. No order is narrower than a row's k + 1
    columns, so a row-major band of that height is kept without a search;
    every 1D lattice has one. `cols` are the families' rows, (c, n) each."""
    v = lattice.n_sites
    n_band = 1 + max(int(np.max(np.ptp(c, axis=0))) for c in cols)
    pos = np.arange(v)
    if n_band <= min(max(len(c) for c in cols), v):
        return pos
    (j, i), table, degree = _coupling_graph(cols, n_band, v)
    shape, mid = lattice.shape, [s // 2 for s in lattice.shape]
    for axis, size in enumerate(shape):
        for end in (0, size - 1):
            order = _cuthill_mckee(table, degree, int(np.ravel_multi_index(
                (*mid[:axis], end, *mid[axis + 1:]), shape)))
            at = np.empty(v, dtype=np.intp)
            at[order[::-1]] = np.arange(v)
            height = 1 + int(np.max(np.abs(at[j] - at[i])))
            if height < n_band:
                pos, n_band = at, height
    return pos


class TemplateBand:
    """A chain's workspace for the band of Q in `template_conditional`.

    Q sums w w^T / F over the rows of the state's NNGP table: the template's,
    family 0, with columns [l, predecessors] and weights [1, -B], and the
    subjects', each with the columns of its library entry's neighbor set and
    weights B. The band numbers the sites by `pos`, from `band_order` over
    the template's rows and the subjects' at the library entries `entry`
    given, and `order` lists the sites in band order. Neither kind of row's
    columns ever change, so the band slots of their pairs (`_pair_slots` of
    pos[cols]) are built once, per template row and per library entry, and
    built again only when the band height that a state needs changes. A sum
    gathers the subjects' slots by entry, writes every pair's value into
    buffers held here, and sums all pairs, template rows first, with one
    bincount.

    The sum is kept, with the (state.rho, state.T) it was made at and the
    alpha: the rows' weights B and entries follow from rho and T alone, and
    their F are proportional to alpha. A state with the same rho and T reads
    the kept sum times alpha_kept / alpha, which differs from a new sum in
    the last bits. Of size O(V w) a call allocates only the band it returns
    and, when it sums anew, the kept sum.
    """

    def __init__(self, geom, entry):
        v, k = geom.predecessors.nbr.shape
        n_subjects = len(entry)
        split = (k + 1) * (k + 2) // 2 * v
        self.slots = np.empty(split + k * (k + 1) // 2 * n_subjects * v, dtype=np.intp)
        self.values = np.empty(self.slots.size)
        self.template = _PairFamily(k + 1, v, self.slots[:split], self.values[:split])
        self.template.w[0] = 1.0
        self.subjects = _PairFamily(k, n_subjects * v, self.slots[split:], self.values[split:])
        lib = geom.library.neighbor_indices
        template_cols = np.vstack([np.arange(v), geom.predecessors.nbr.T])
        used = np.zeros(len(lib), dtype=bool)
        used[entry.ravel()] = True          # not np.unique: its first call takes ~15 ms
        self.pos = band_order([template_cols, lib[used].T], geom.lattice)
        self.order = np.argsort(self.pos)
        self.template_cols, self.entry_cols = self.pos[template_cols], self.pos[lib.T]
        self.template_span = int(np.max(np.ptp(self.template_cols, axis=0)))
        self.entry_span = np.ptp(self.entry_cols, axis=0)
        self.n_band = 0               # the band height the slot tables are built for
        self.entry_slots = None       # (k (k + 1) / 2, n_lib)
        self.key = None               # (rho, T bytes) of the kept sum
        self.kept, self.kept_alpha = None, None

    def holds(self, state):
        """Whether the kept sum is the one at the state's rho and T."""
        return self.key == (state.rho, state.T.tobytes())

    def precision(self, state):
        """Sum of w w^T / F over the NNGP table: the (n_band, V) band, Fortran-ordered,
        a new array; the kept sum rescaled to the state's alpha when it `holds`."""
        if not self.holds(state):
            self.kept, self.kept_alpha = self.assemble(state), state.alpha
            self.key = (state.rho, state.T.tobytes())
        return self.kept * (self.kept_alpha / state.alpha)

    def assemble(self, state):
        """A new sum of w w^T / F over the state's NNGP table, in band order."""
        n_band = 1 + max(self.template_span, int(np.max(self.entry_span[state.entry])))
        if n_band != self.n_band:
            self.template.slots[...] = _pair_slots(self.template_cols, n_band)
            self.entry_slots = _pair_slots(self.entry_cols, n_band)
            self.n_band = n_band
        np.take(self.entry_slots, state.entry.ravel(), axis=1, out=self.subjects.slots,
                mode="clip")
        np.negative(state.B[0].T, out=self.template.w[1:])
        np.divide(1.0, state.F[0], out=self.template.finv)
        np.copyto(self.subjects.w, state.B[1:].reshape(-1, state.B.shape[-1]).T)
        np.divide(1.0, state.F[1:].ravel(), out=self.subjects.finv)
        self.template.fill_values()
        self.subjects.fill_values()
        v = state.X.size
        return np.bincount(self.slots, self.values, n_band * v).reshape(v, n_band).T


def template_conditional(state, geom):
    """Precision Q and linear term b of X | rest ~ N(Q^-1 b, Q^-1), in band order.

    Q = (I - B_0)^T F_0^-1 (I - B_0) + sum_i B_i^T F_i^-1 B_i
        + (sum_i beta_i^2 / sigma_i^2) I,
    b = sum_i B_i^T (XT_i / F_i) + sum_i beta_i Y_bw,i / sigma_i^2,
    over the families of the state's NNGP table. Template row l has columns
    [l, predecessors] and weights [1, -B_0]; the padded predecessor slots
    carry B = 0 and are pointed at l itself. Subject rows are the library
    sets nbr[1:] with weights B[1:]. Site l is row and column pos[l] of
    both, pos = `state.band.pos`, so b is b[state.band.order] of the sites.
    Q is returned in LAPACK lower-band storage, Fortran-ordered, Q[j + d, j]
    at [d, j], assembled by `state.band`.

    Its bandwidth is the widest span in band positions of this state's rows,
    not of every library entry. On 28x28 the state's rows span ~113 band
    rows in reverse Cuthill-McKee order against 169 in row-major order, where
    ~180 subject rows at the lattice's side edges, strips down one or two
    columns, set it (the library's widest entry spans 225 there), and
    `dpbtrf` takes ~1.1 ms against ~1.8 ms. The slot tables are rebuilt
    when the height changes. Q's NNGP part is kept while rho and every T_i
    stay (`TemplateBand`): in glyph chains of 200 sweeps, 13-78% of sweeps
    by chain seed, and few once the forward steps adapt. Such a call costs
    ~0.15 ms on 28x28, one that sums anew ~1.1 ms, most of it the bincount
    into the band, and ~0.1-0.4 ms on the 1D curves; besides the band it
    allocates only O(N V k).
    """
    v = state.X.size
    _, _, nbr, weights, f = subject_caches(state)
    k = nbr.shape[-1]
    xt_f = (state.XT / f).ravel()
    b = np.bincount(nbr.ravel(), (weights.reshape(-1, k) * xt_f[:, None]).ravel(), v)
    b += (state.beta / state.sigma2) @ state.Y_bw
    ab = state.band.precision(state)
    ab[0] += np.sum(state.beta ** 2 / state.sigma2)
    return ab, b[state.band.order]


def update_template(state, geom, rng):
    """Exact block Gibbs draw x = Q^-1 b + L^-T z, with Q = L L^T banded; the
    draw is in band order, and X takes it back to the sites, X = y[pos]."""
    ab, b = template_conditional(state, geom)
    chol, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise IllConditioned(f"template precision is not positive definite (dpbtrf info {info})")
    mean, _ = dpbtrs(chol, b, lower=1)
    noise, _ = dtbtrs(chol, rng.standard_normal(b.size), uplo="L", trans="T")
    state.X = (mean + noise)[state.band.pos]
    return state.X


def beta_sigma_conditional(state, hp):
    """Parameters of (beta_i, sigma_i^2) | rest for every subject.

    sigma_i^2 ~ IG(shape, rate_i) with beta_i marginalized out, then
    beta_i | sigma_i^2 ~ N(mu_i, lam_i sigma_i^2). Returns (shape, rate,
    mu, lam), the last three (N,); raises NonPositiveScale unless every
    rate is positive and finite.
    """
    x, xt, y, ybw = state.X, state.XT, state.Y, state.Y_bw
    # An einsum, not the module's `row_dot`: the two may round differently.
    row_dot = lambda a, b: np.einsum("nv,nv->n", a, b)
    lam = 1.0 / (row_dot(xt, xt) + float(x @ x) + hp.lambda0)
    mu = lam * (hp.mu0 * hp.lambda0 + row_dot(xt, y) + ybw @ x)
    rate = hp.a1_sigma + 0.5 * (row_dot(y, y) + row_dot(ybw, ybw)
                                + hp.mu0 ** 2 * hp.lambda0 - mu * mu / lam)
    if not np.all(np.isfinite(rate) & (rate > 0.0)):
        raise NonPositiveScale(f"sigma^2 inverse-gamma rate is {rate}")
    return hp.a0_sigma + y.shape[1], rate, mu, lam


def update_beta_sigma(state, hp, rng):
    """Draw all sigma_i^2, beta marginalized, in one call; then all beta_i | sigma_i^2."""
    shape, rate, mu, lam = beta_sigma_conditional(state, hp)
    state.sigma2 = 1.0 / rng.gamma(shape=shape, scale=1.0 / rate)
    state.beta = rng.normal(mu, np.sqrt(lam * state.sigma2))


def alpha_conditional(state, hp, means):
    """Shape and rate of the conjugate inverse-gamma conditional for alpha,
    given the conditional means of the NNGP table at the state's weights,
    conditional_means(state.X, state.nbr, state.B)."""
    resid = table_values(state) - means
    quad = float(np.sum(resid ** 2 * state.alpha / state.F))
    return hp.a0_alpha + resid.size / 2.0, hp.b0_alpha + 0.5 * quad


def update_alpha(state, hp, rng):
    """Draw alpha; returns the NNGP table's conditional means it used, which
    rho's step reuses: a new alpha rescales F, never B."""
    means = conditional_means(state.X, state.nbr, state.B)
    shape, rate = alpha_conditional(state, hp, means)
    new_alpha = 1.0 / rng.gamma(shape=shape, scale=1.0 / rate)
    state.F = state.F * (new_alpha / state.alpha)
    state.alpha = new_alpha
    return means


def rho_weights(state, geom, factor):
    """(B, F) of the NNGP table at the rho of `factor` and the state's alpha,
    (N + 1, V, k) and (N + 1, V): the template's rows, weighed once per
    predecessor pattern and gathered by site, and the subjects' from the
    cached neighbor distances, one `library_weights` path for both."""
    library, pre = geom.library, geom.predecessors
    n, v, k = state.dist.shape
    b, f = np.empty((n + 1, v, k)), np.empty((n + 1, v))
    tb, tf = library_weights(pre.target_dist, pre.rows, library, factor, state.alpha)
    b[0], f[0] = np.take(tb, pre.ids, axis=0), np.take(tf, pre.ids)
    library_weights(state.dist.reshape(-1, k), np.take(library.pattern_ids, state.entry.ravel()),
                    library, factor, state.alpha, out=(b[1:].reshape(-1, k), f[1:].reshape(-1)))
    return b, f


def rho_log_target(state, f, means):
    """rho-dependent part of the joint: the NNGP log density of every row of the
    table, X's and every X(T_i)'s, given the table's variances f and
    conditional means; `rho_target` calls it."""
    return nngp_log_density_from_weights(table_values(state), means, f)


def rho_target(state, geom, rho, means):
    """rho's target at the state's NNGP table, whose conditional means are
    `means`, and at the proposal `rho`: (log_old, log_new, factor, (B, F)),
    the last two the proposal's `KrigingFactor` and table (`rho_weights`)."""
    factor = kriging_factor(geom.library, rho)
    b, f = rho_weights(state, geom, factor)
    return (rho_log_target(state, state.F, means),
            rho_log_target(state, f, conditional_means(state.X, state.nbr, b)), factor, (b, f))


def update_rho(state, geom, hp, rng, means):
    """Random-walk Metropolis on rho; proposals outside (L, U) are rejected.

    The target is `rho_target`. `means` are the NNGP table's conditional
    means at the state's weights (`update_alpha` returns them), so only the
    proposal's means are computed here. On accept the proposal's factor and
    table become the state's.
    """
    state.rho_proposals += 1
    prop = state.rho + RHO_STEP * rng.standard_normal()
    accept_draw = np.log(rng.uniform())
    if not (hp.rho_lower < prop < hp.rho_upper):
        return False
    log_old, log_new, factor, weights = rho_target(state, geom, prop, means)
    if accept_draw < log_new - log_old:
        state.rho = prop
        state.factor = factor
        state.B, state.F = weights
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


def forward_log_target(terms, x, xt, weights, hp):
    """T-dependent part of the joint, per subject: prior, NNGP terms of X(T), both penalties.

    `terms` is the subjects' (log prior of T, penalty sum) of
    `transform_terms`, xt their (n, V) X(T) values and `weights` the
    (nbr, B, F) of their T(S), stacked. Returns (n,). `forward_target` calls it.
    """
    log_prior, penalty = terms
    nbr, b, f = weights
    return (log_prior
            + nngp_log_density_from_weights(xt, conditional_means(x, nbr, b), f, axis=-1)
            - hp.lambda_r * penalty)


def forward_target(state, geom, hp, rows, h):
    """The forward target of every current T_i and of the proposals h for the
    subjects `rows`, in the (inside, log_old, log_new, payload) form that
    `lie_mh_step` takes. inside marks the proposals that keep every template
    site in the neighbor library; log_old is (N,); log_new and the payload,
    the proposals' `subject_caches`, are stacked over the inside proposals
    only. One `transform_terms` call covers the current T_i and those
    proposals; the current NNGP terms read the state's caches."""
    inside, caches = subject_geometry(h, geom, state.factor, state.alpha)
    kept, n = rows[inside], len(state.T)
    terms = transform_terms(geom.prior_T, np.concatenate([state.T, h[inside]]),
                            np.concatenate([state.T_r, state.T_r[kept]]))
    log_old = forward_log_target([t[:n] for t in terms], state.X, state.XT,
                                 subject_caches(state)[2:], hp)
    log_new = forward_log_target([t[n:] for t in terms], state.X, state.XT[kept], caches[2:], hp)
    return inside, log_old, log_new, caches


def reverse_log_target(terms, x, y_bw, beta, sigma2, hp):
    """T^r-dependent part, per subject: prior, SSD of y_bw = Y(T^r(S))
    (1/2 weighted), both penalties; `terms` the (log prior of T^r, penalty
    sum) of `transform_terms`, stacked as in `forward_log_target`, with the
    subjects' (n, V) y_bw and (n,) beta and sigma2. Returns (n,)."""
    log_prior, penalty = terms
    ssd = np.sum((y_bw - beta[:, None] * x) ** 2, axis=1)
    return log_prior - 0.5 * ssd / sigma2 - hp.lambda_r * penalty


def reverse_target(state, geom, hp, rows, h):
    """The reverse target of every current T_i^r and of the proposals h for
    the subjects `rows`, as `forward_target` returns it: every proposal is
    inside, and the payload is the proposals' Y_bw, sampled from their
    subjects' maps in one call of `state.warps`. One `transform_terms` call
    covers the current T_i^r and the proposals; the current SSD reads Y_bw."""
    n = len(state.T_r)
    y_bw = state.warps(h, rows)
    terms = transform_terms(geom.prior_Tr, np.concatenate([state.T_r, h]),
                            np.concatenate([state.T, state.T[rows]]))
    log_old = reverse_log_target([t[:n] for t in terms], state.X, state.Y_bw, state.beta,
                                 state.sigma2, hp)
    log_new = reverse_log_target([t[n:] for t in terms], state.X, y_bw, state.beta[rows],
                                 state.sigma2[rows], hp)
    return np.ones(rows.size, dtype=bool), log_old, log_new, (y_bw,)


def lie_mh_step(arrays, target, adapt, rng):
    """One random-walk Metropolis step H_i -> exp(delta_i) H_i of each of n
    independent rows on the affine group; returns the (n,) accept mask.

    arrays[0] holds the rows' homogeneous matrices, (n, d + 1, d + 1), and
    `adapt` is their n-row `AdaptiveProposal`. The step draws all n deltas
    from one (n, dim) block of normals, through `adapt.proposal_factor()`,
    then all n accept uniforms in one call, and forms each proposal with
    `lie_exp`. A proposal with no real logarithm (`has_real_log`) is
    rejected (`rejected_nolog`) unevaluated. `target(rows, proposals)` gets
    the other rows' indices, ascending, and their proposals' stack; it
    returns (inside, log_old, log_new, payload): inside marks the proposals
    that stay in the neighbor library (the others count in `rejected_oob`),
    log_old is the (n,) log targets of the current rows, and log_new and
    payload, a tuple of arrays, are stacked over the inside proposals only.
    An accepted row's proposal is written to arrays[0] and its payload rows
    to arrays[1:], in order.
    """
    h = arrays[0]
    n = len(h)
    deltas = (adapt.proposal_factor() @ rng.standard_normal((n, adapt.dim, 1)))[..., 0]
    draws = np.log(rng.uniform(size=n))
    proposals = np.array([lie_exp(delta) for delta in deltas]) @ h
    real = np.array([has_real_log(p) for p in proposals])
    inside = np.zeros(n, dtype=bool)
    accepted = np.zeros(n, dtype=bool)
    rows = np.flatnonzero(real)
    if rows.size:
        in_library, log_old, log_new, payload = target(rows, proposals[rows])
        rows = rows[in_library]
        inside[rows] = True
        keep = draws[rows] < lie_mh_log_acceptance(log_old[rows], log_new, deltas[rows])
        accepted[rows] = keep
        for array, value in zip(arrays, (proposals[rows], *payload)):
            array[accepted] = value[keep]
    adapt.record(accepted, deltas, real, inside)
    return accepted


def update_forward_transform(state, geom, hp, adapt, rng):
    """One Lie-MH step of every T_i of `forward_target`, one `lie_mh_step` for
    all subjects: on accept, T_i and row i of its NNGP caches change, to the
    values the proposal's target computed. Returns the (N,) accept mask."""
    return lie_mh_step((state.T, *subject_caches(state)), partial(forward_target, state, geom, hp),
                       adapt, rng)


def update_reverse_transform(state, geom, hp, adapt, rng):
    """One Lie-MH step of every T_i^r of `reverse_target`, one `lie_mh_step`
    for all subjects: on accept, T_i^r and row i of Y_bw change, to the
    values the proposal's target computed. Returns the (N,) accept mask."""
    return lie_mh_step((state.T_r, state.Y_bw), partial(reverse_target, state, geom, hp),
                       adapt, rng)


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

def row_dot(a, b):
    """The dot product of each row of a with the same row of b: (..., V) by
    (..., V) to (...). Each entry has the bits of `float(a_i @ b_i)` and of
    `np.dot(a_i, b_i)`: numpy's matmul takes a (1, V) by (V, 1) product as
    that dot."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def coarse_grid(lattice):
    """Deterministic coarse search grid over the affine group, the set-up's
    first candidates for each subject's transform (`fit_transforms`): a stack
    of homogeneous matrices, scale-major, then rotation, then shift."""
    lower, upper = lattice.bounds()
    extent = upper - lower
    center = 0.5 * (lower + upper)
    d = lattice.dim
    if d == 1:
        a = np.linspace(0.8, 1.25, 10)[:, None, None]
        shifts = np.linspace(-0.25 * extent[0], 0.25 * extent[0], 21)[:, None]
    else:
        angles = np.linspace(-np.pi / 6.0, np.pi / 6.0, 7)
        # One scalar cos and sin per angle: numpy's vector loops may round
        # them differently in the last bit.
        rot = np.array([[[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
                        for th in angles])
        a = (np.array([0.9, 1.0, 1.1])[:, None, None, None] * rot).reshape(-1, 2, 2)
        shifts = np.stack(np.meshgrid(np.linspace(-0.25 * extent[0], 0.25 * extent[0], 5),
                                      np.linspace(-0.25 * extent[1], 0.25 * extent[1], 5),
                                      indexing="ij"), axis=-1).reshape(-1, 2)
    # b = shift + center - a center: each candidate moves the lattice's center by its shift.
    h = np.zeros((len(a), len(shifts), d + 1, d + 1))
    h[..., :d, :d] = a[:, None]
    h[..., :d, d] = (shifts + center)[None] - (a @ center)[:, None]
    h[..., d, d] = 1.0
    return h.reshape(-1, d + 1, d + 1)


def gesv(a, b):
    """x solving a x = b, (n, n) by (n,), by one call of LAPACK's dgesv (LU
    with partial pivoting), the routine `np.linalg.solve` calls, without
    that function's wrapper: ~1.1-1.4 us a call against ~5 us at n = 2 and 6
    (2-core x86-64, numpy 2.4, scipy 1.17). On 20 000 damped LM systems
    each, x had the bits of `np.linalg.solve` at n = 2; at n = 6, 285
    differed, by at most 2.4e-16 relative (the two packages' LAPACK builds).
    A non-zero info raises np.linalg.LinAlgError, as `np.linalg.solve` does
    for a singular a.
    """
    x, info = dgesv(a, b)[2:]
    if info:
        raise np.linalg.LinAlgError(f"Singular matrix (dgesv info {info})")
    return x


def lm_points(p, tol=FIT_TOL):
    """Minimize ||r(p)||^2 from p by Levenberg-Marquardt, as a coroutine: it
    yields each point it needs, is sent that point's residuals r (m,) and
    their Jacobian J (m, n), and returns (p, ||r(p)||^2).

    Each step h solves (J^T J + mu D) h = -J^T r by one `gesv`, D the
    largest diagonal of J^T J met so far (Marquardt's scaling, kept as
    MINPACK's lmder keeps it), and mu follows Nielsen's update (Madsen,
    Nielsen & Tingleff 2004, Alg. 3.16): with gain ratio rho > 0 the step is
    taken and mu shrinks by max(1/3, 1 - (2 rho - 1)^3), otherwise mu grows
    by nu and nu doubles. A point whose residuals are not finite is never
    taken. With `tol` (default FIT_TOL) for each tolerance it stops as lmder
    does: when the actual and the predicted relative reductions of ||r||^2
    are both below it (ftol), when the step is below it relative to p, both
    scaled by D^1/2 (xtol), or when the cosine between r and each column of
    J is (gtol); and after 100 (n + 1) points, lmder's default cap. The gtol
    and xtol tests run on Python floats, from `tolist()` and numpy's dots: a
    product, a square root and a comparison round alike in both, so they
    decide as numpy's array forms would, with fewer numpy calls.
    `levenberg_marquardt` drives one per problem in lock step.
    """
    n = p.size
    r, jac = yield p
    f = float(r @ r)
    scale = None
    mu, nu = 3.0, 2.0      # of mu0 in 1e-9 .. 10, 3 took the fewest points over the set-ups
    taken = True
    for _ in range(100 * (n + 1) - 1):
        if taken:
            a, g = jac.T @ jac, jac.T @ r
            diag = a.diagonal()
            # gtol, which a zero residual meets; and a start that is not finite
            if not math.isfinite(f) or all(abs(g_j) <= tol * math.sqrt(f * d_j)
                                           for g_j, d_j in zip(g.tolist(), diag.tolist())):
                break
            scale = np.where(diag > 0, diag, 1.0) if scale is None else np.maximum(scale, diag)
        damped = a.copy()
        damped.flat[::n + 1] += mu * scale
        h = gesv(damped, -g)
        if math.sqrt(scale @ (h * h)) <= tol * math.sqrt(scale @ (p * p)):
            break
        pred = float(h @ (mu * scale * h - g))
        if not pred > 0.0:
            break
        p_new = p + h
        r_new, jac_new = yield p_new
        f_new = float(r_new @ r_new)
        rho = (f - f_new) / pred
        done = abs(f - f_new) <= tol * f and pred <= tol * f and rho <= 2.0
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


def levenberg_marquardt(points, starts, tol=FIT_TOL):
    """`lm_points` at tolerance `tol` from each row of starts (n_problems,
    n), every problem in lock step; returns each problem's point p
    (n_problems, n) and ||r(p)||^2 (n_problems,).

    `points(P, rows)` returns the residuals (live, m) and their Jacobians
    (live, m, n) of the live problems, whose indices are `rows`, at their
    points P (live, n), all from one call. A round evaluates every live
    problem once, and a problem leaves when its fit stops, so a call takes
    as many rounds as its longest fit has points. When `points` gives each
    row the bits it gives that row alone, each problem's result is that of
    the call on its own start.
    """
    fits = [lm_points(p, tol) for p in starts]
    # Each problem's point to evaluate, and its result once its fit stops.
    p = np.array([next(fit) for fit in fits])
    f = np.empty(len(p))
    done = np.zeros(len(p), dtype=bool)
    while not done.all():
        rows = np.flatnonzero(~done)
        r, jac = points(p[rows], rows)
        for k, i in enumerate(rows):
            try:
                p[i] = fits[i].send((r[k], jac[k]))
            except StopIteration as stop:
                p[i], f[i] = stop.value
                done[i] = True
    return p, f


def fit_affine(warp, y, beta, best, tol=FIT_TOL):
    """Each subject's homogeneous matrix of the affine transform minimizing
    ||Y_i - beta_i X(T)||^2, refined by Levenberg-Marquardt at tolerance
    `tol` (default FIT_TOL) from its best candidate best[i], as an (N, d + 1,
    d + 1) stack.

    `warp` samples X at T(S), y is (N, V), beta (N,) and best (N, d + 1,
    d + 1) (`fit_transforms`). The subjects' fits run in lock step
    (`levenberg_marquardt`) over the top d rows of their matrices, with the
    exact Jacobian of the residuals: Catmull-Rom interpolation is C^1, so
    the objective is a smooth sum of squares. Each round samples the map
    once for every live subject's point, for the residuals and the
    Jacobians together (`Warp.value_and_jacobian` of the stack), and each
    row of that call has the bits of the call on its point alone. A refined
    matrix is kept only if it makes a valid `AffineTransform` and its
    objective is no worse than best[i]'s, which is the LM's first, so no
    candidate is warped again to be scored: its ||r||^2, r = beta_i X(T) -
    Y_i, has the bits of ||Y_i - beta_i X(T)||^2 from `warp(best)`, since
    negation is exact and `Warp.value_and_jacobian` gives the values of
    `warp`. Otherwise best[i] is kept.
    """
    d = warp.dim
    best_obj = None

    def points(tops, rows):
        nonlocal best_obj
        vals, jac = warp.value_and_jacobian(tops.reshape(-1, d, d + 1))
        b = beta.take(rows)[:, None]    # `take` gathers at less overhead than indexing
        r = b * vals - y.take(rows, axis=0)
        if best_obj is None:        # the first round: every subject at best[i]
            best_obj = row_dot(r, r)
        return r, b[:, :, None] * jac

    p, f = levenberg_marquardt(points, best[:, :d].reshape(len(best), -1), tol)
    out = best.copy()
    for i in np.flatnonzero(f <= best_obj):
        top = p[i].reshape(d, d + 1)
        try:
            out[i] = AffineTransform.from_parts(top[:, :d], top[:, d]).matrix
        except SingularTransform:
            pass
    return out


def candidate_objectives(warp, y, beta, starts, grid):
    """The (N, 1 + len(grid)) table of each subject's ||Y_i - beta_i X(T)||^2
    at its candidates, starts[i] and then the rows of `grid`
    (`fit_transforms`): the starts in one stacked call, then the grid, which
    is the same for every subject, one `warp.chunk` of candidates per kernel
    pass, so no (len(grid), V) array is held. Each subject's entries of a
    pass are formed from its own residual rows: a residual stack over the
    subjects would cross glibc's 128 KiB mmap threshold at N > 4 on the
    glyph. An entry is row_dot(r, r), r = y_i - beta_i X(T), with the bits
    of float(r @ r).
    """
    objs = np.empty((len(y), 1 + len(grid)))
    r = y - beta[:, None] * warp(starts)
    objs[:, 0] = row_dot(r, r)
    for lo in range(0, len(grid), warp.chunk):
        xt = warp(grid[lo:lo + warp.chunk])
        for i in range(len(y)):
            r = y[i] - beta[i] * xt
            objs[i, 1 + lo:1 + lo + len(xt)] = row_dot(r, r)
    return objs


def fit_transforms(warp, y, beta, starts, grid, tol=FIT_TOL):
    """Each subject's transform for ||Y_i - beta_i X(T)||^2, as an (N, d + 1,
    d + 1) stack: the best of its candidates, starts[i] and then the rows of
    the stack `grid` (`coarse_grid`, or an empty stack), refined by
    `fit_affine` at tolerance `tol` for all subjects at once. Both models'
    set-ups fit through here: the baseline's at the default FIT_TOL, and
    `initialize` at the tolerance of its pass.

    `warp` samples X at T(S); y is (N, V), beta (N,) and starts (N, d + 1,
    d + 1). With an empty grid the starts are the candidates, and no start
    is warped to be scored: the refinement takes each candidate's objective
    from its own first round (`fit_affine`). Otherwise one argmin per row of
    `candidate_objectives` picks each subject's candidate, so ties go to the
    earlier candidate, the start first.
    """
    if not len(grid):
        return fit_affine(warp, y, beta, starts, tol)
    k = np.argmin(candidate_objectives(warp, y, beta, starts, grid), axis=1)
    best = starts.copy()
    best[k > 0] = grid[k[k > 0] - 1]
    return fit_affine(warp, y, beta, best, tol)


def initialize(maps, config):
    """Alternating template/transform initialization (deterministic).

    Repeats: fit each T_i by warping beta_i X to Y_i (`fit_transforms`: the
    best of the previous T_i and, on the first pass only, the coarse grid,
    refined by Levenberg-Marquardt on every pass), re-fit the betas by one
    row-wise no-intercept regression of each Y_i onto X(T_i) (`row_dot`),
    standardize T at identity and beta at 1, then re-estimate X as the mean
    of the back-warped maps Y_i(T_i^{-1})/beta_i. The passes fit at
    LOOSE_TOL until the first whose relative template change falls below
    INIT_TOL; the pass after it fits at FIT_TOL and is the last, and the
    pass at config.init_iters, if reached, is always at FIT_TOL. So the
    returned T_i are fit to FIT_TOL against their own pass's template, as
    with FIT_TOL on every pass; the precision a loose pass skips would not be
    kept, since the next pass refits every T_i against a moved template. The
    state records the passes run (`init_passes`) and the last pass's change
    (`init_rel_change`), and takes that pass's T_i^{-1} and back-warps as T_r
    and Y_bw. Needs only the maps' lattice: the neighbor library is sized
    afterwards from the transforms found here (`library_margin`). Raises
    DegenerateInput for a constant map, or when an X(T_i) is identically
    zero: the regression is then undefined.

    Every warp goes through one of two prebuilt `Warp`s, which sample at
    T(S) for S the maps' lattice sites: `Warp(maps)` for the back-warps,
    which samples every subject's map at its transform in one call and
    becomes the state's `warps`, so the chain does not build it again; and
    one `Warp` of the template, refilled with each pass's X (`Warp.refill`),
    which every subject's candidates, LM points and scale regression share,
    and which samples the final X(T_i). So the first pass samples each
    coarse-grid candidate once, not once per subject; a later pass samples
    no start to score it, only its LM points and the N X(T_i) of its scale
    regression; and each round of the subjects' lock-step LM fits samples
    all their points in one call (`fit_affine`).
    """
    lattice = common_lattice(maps)
    y = np.stack([amap.values for amap in maps])
    if np.any(np.ptp(y, axis=1) == 0.0):
        raise DegenerateInput("constant map: scale regression undefined")

    back = Warp(maps)
    x = np.mean(y, axis=0)
    warp = Warp(ActivationMap(lattice, x))
    ts = np.array([np.eye(lattice.dim + 1)] * len(maps))
    betas = np.ones(len(maps))

    grid = coarse_grid(lattice)
    last = False
    for passes in range(1, config.init_iters + 1):
        last = last or passes == config.init_iters
        ts = fit_transforms(warp, y, betas, ts, grid if passes == 1 else grid[:0],
                            FIT_TOL if last else LOOSE_TOL)
        xt = warp(ts)
        den = row_dot(xt, xt)
        if np.any(den <= 0.0):
            raise DegenerateInput("scale regression undefined: X(T) is identically zero")
        betas = row_dot(xt, y) / den
        ts, _ = standardize(ts)
        betas = betas / np.mean(betas)
        ts_r = np.array([affine_inverse(t) for t in ts])
        y_bw = back(ts_r)
        x_new = np.mean(y_bw / betas[:, None], axis=0)
        rel = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-12)
        x = x_new
        warp.refill(x)
        if last:
            break
        last = rel < INIT_TOL

    xt = warp(ts)
    sigma2 = np.maximum(np.mean((y - betas[:, None] * xt) ** 2, axis=1), 1e-12)
    alpha = max(float(np.var(x)), 1e-12)
    rho = 0.5 * (config.rho_lower + config.rho_upper)
    return ChainState(X=x.copy(), maps=list(maps), T=ts, T_r=ts_r, Y=y, XT=xt, Y_bw=y_bw,
                      beta=betas, sigma2=sigma2, alpha=alpha, rho=rho, warps=back,
                      init_passes=passes, init_rel_change=float(rel))


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

    A model's `__init__` calls `start`, which sets the `config`, `maps`,
    `lattice`, `lambda_r`, `iteration` and `rng` (the chain's one generator,
    seeded by `config.seed`) that these read, and sets the `proposals` (by
    direction); it supplies `updates`, `record`, `snapshot` and
    `model_diagnostics` (`baseline.ConventionalChain` is the other model).

    The neighbor library is sized from the initial state, by
    `library_margin`, so no set-up fails for want of margin. A chain that
    moves a transform further out rejects that move.
    """

    def __init__(self, maps, config, initial_state=None):
        self.start(maps, config, config.lambda_r)
        lattice = self.lattice
        if initial_state is None:
            initial_state = initialize(self.maps, config)
        self.geom = build_geometry(lattice, config, library_margin(lattice, initial_state.T))
        self.state = initial_state
        n = len(self.state.T)
        dim_lie = lattice.dim * (lattice.dim + 1)
        self.proposals = {direction: AdaptiveProposal(n, dim_lie)
                          for direction in ("forward", "reverse")}
        refresh_caches(self.state, self.geom)

    def start(self, maps, config, lambda_r):
        """Set what the run loop and the sweep read of every model: config,
        maps, their common lattice, lambda_r, the sweep count and the generator."""
        self.config = config
        self.lattice = common_lattice(maps)
        self.maps = list(maps)
        self.lambda_r = lambda_r
        self.iteration = 0
        self.rng = np.random.default_rng(config.seed)

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
            for rec in self.proposals.values():
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
        means = update_alpha(state, hp, rng)
        update_rho(state, geom, hp, rng, means)

    def record(self):
        """The current draw's `SampleStore` fields, standardized, its pointwise
        log-likelihood row for WAIC, and what `model_diagnostics` reads.

        The fields are the draw with its forward transforms at Karcher mean
        identity and its betas at mean 1 (`standardize_forward_transforms`,
        `standardize_scales`); the chain state is left as it is. The
        pointwise log-likelihood and the inverse-consistency error are the
        same for the raw and the standardized draw.
        """
        st = self.state
        h, h_r = standardize_forward_transforms(st.T, st.T_r)
        betas, x, alpha = standardize_scales(st.X, st.beta, st.alpha)
        fields = (x, h, h_r, betas, st.sigma2, alpha, st.rho)  # a sweep draws a new sigma2
        ic_error = np.mean(composition_identity_gap(st.T, st.T_r))
        return fields, pointwise_log_lik(st), ic_error

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
        """Run the configured chain, accumulating WAIC row by row; returns (store, diagnostics)."""
        cfg = self.config
        t_start = time.perf_counter()
        kept, extras, log_lik = [], [], WaicAccumulator()
        for it in range(cfg.total):
            self.sweep()
            if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
                fields, row, extra = self.guarded("record", it, self.record)
                kept.append(fields)
                extras.append(extra)
                if row is not None:
                    log_lik.add(row)
        runtime = time.perf_counter() - t_start

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
        store = SampleStore(meta, *(np.asarray(col, dtype=float) for col in zip(*kept)))
        diagnostics = {
            "runtime_seconds": runtime,
            "iterations": self.iteration,
            "n_samples": len(kept),
            "rejected_out_of_library": self.proposals["forward"].rejected_oob.tolist(),
            "rejected_no_real_log": sum(r.rejected_nolog
                                        for r in self.proposals.values()).tolist(),
        }
        for direction, rec in self.proposals.items():
            diagnostics[f"{direction}_acceptance"] = rec.acceptance_rate().tolist()
            diagnostics[f"{direction}_acceptance_post_burnin"] = (
                rec.acceptance_rate(post_only=True).tolist())
        diagnostics.update(self.model_diagnostics(extras))
        if log_lik.n:
            diagnostics["waic"] = log_lik.waic() if log_lik.n >= 2 else float("nan")
        return store, diagnostics

    def model_diagnostics(self, kept_ic):
        """rho acceptance, last scalar values and mean IC error of the kept records.

        The `*_last` values are the raw chain state after the last sweep, not
        standardized as the records are.
        """
        st = self.state
        return {
            "rho_acceptance": (st.rho_accepts / st.rho_proposals
                               if st.rho_proposals else float("nan")),
            "alpha_last": st.alpha,
            "rho_last": st.rho,
            "mean_ic_error": float(np.mean(kept_ic)),
            "library_margin": self.geom.library.margin,
            "beta_last": st.beta.tolist(),
            "sigma2_last": st.sigma2.tolist(),
            "init_passes": st.init_passes,
            "init_rel_change": st.init_rel_change,
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

    A symmetric store's draws are standardized as `Chain.record` writes
    them (forward transforms at Karcher mean identity, betas at mean 1), so
    these summarize the identified template and transforms. A conventional
    store holds its T_i as drawn (`ConventionalChain.record`), and its mean
    forward transforms are those of the raw draws. The ratio is
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
