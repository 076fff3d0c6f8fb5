"""Exponential-kernel Gaussian-process machinery.

Dense Kriging (the exact oracle), ordered-predecessor NNGP weights for the
template sites, and the dynamic neighbor library that resolves m-nearest
template neighbors of arbitrary (moving) locations in constant time.

Conventions fixed here: site ordering is row-major lattice order; neighbor
ties break toward the smaller linear index; covariance diagonals carry a
jitter of 1e-10 * alpha and conditional variances are clamped at
1e-12 * alpha from below. Neighbor sets of transformed sites condition on
template sites only.

Pattern cache. On a regular lattice the k x k covariance of a neighbor set
depends only on its distance matrix and on rho, because
C = alpha (R(rho) + JITTER I). Every NNGP row is therefore a row of a small
table of patterns, each stored as its k x k distance matrix. A library
pattern (`NeighborLibrary.pattern_dist`) is a distinct distance matrix of an
entry's neighbor set, its sites listed in lattice order: entries are grouped
by offset shape (their neighbors' offsets in lattice steps), and shapes whose
matrices are equal bit for bit are merged. In lattice order every 1D entry's
set is a run of k consecutive sites, so a 1D library has one pattern, and the
2116 entries of a 28x28 lattice with margin 9 and m = 10 have 93 shapes and
93 matrices. A predecessor pattern (`PredecessorPatterns`) is an offset shape
of a template site's ordered predecessors with its padding marked (26 on that
lattice, 11 on a 1D one). A padded slot is at distance 0 from itself and inf
from every other slot and from the target, so at any rho > 0 its R row and
column are those of the identity and its r_t is 0: it gets B = 0 exactly and
leaves F as the row without it has it, as in `batched_nngp_weights`. Weights
for any alpha follow as B = (R + JITTER I)^-1 r_t and F = alpha (1 - B . r_t),
with r_t = exp(-rho d_t) from the target-to-neighbor distances d_t. The
template's rows are weighed once per predecessor pattern by one batched
solve (`predecessor_weights`) and gathered by site. A `KrigingFactor` holds,
for one rho, (R + JITTER I)^-1 of the library patterns met so far, each
inverted when `library_weights` first meets it at that rho
(`KrigingFactor.invert`), one `np.linalg.inv` over the patterns missing: a
glyph chain's transformed sites use 27 of the 93, a 1D chain's the one. So a
weights call costs k exps per row and one gemm product per pattern its rows
use, r_t inv^T, not a k x k solve per row. The table takes P k^2 doubles
(about 74 kB for the 28x28 library) plus one int per entry.
`batched_nngp_weights` re-solves every row and stays the brute-force oracle
the cache is checked against.

Neighbor ranking. Library entries and template predecessor sets are ranked
by squared distances formed from integer lattice offsets, each axis weighted
by (spacing / finest spacing)^2, not from differenced coordinates. So a set
depends only on its offsets from the template sites, never on the margin or
the origin. With equal spacing on every axis those distances are integers
in units of the spacing, so equal distances compare equal and ties break
toward the smaller index: a spacing of 0.1 gives the sets of a spacing of 1.
With unequal spacings the weighted keys are the same floats wherever the
lattice sits, and ties among them break the same way. Both tables are built
over windows (`_ranked_sites`): each row is ranked (`_nearest`, a stable
argsort) over a box of sites around the row's nearest lattice site, and kept
if its k-th key lies strictly below every key outside the box; the rows that
are not are ranked again in a box about twice as wide, up to the whole
lattice. Most rows are kept in the first box, of about 2k sites, so the
builds take time linear in the lattice, not in its square:
`model.build_geometry` (margin 9, m = 10) took 0.08 s on a 128x128 lattice
and 10 ms on 28x28, where ranking each row against all V sites took 2.8-3.5
s and 29-49 ms (2-core x86-64 machine; `tools/geometry_times.py`). Rows are
ranked in blocks of about `_BLOCK_BYTES` of keys, so the builds hold no
(n_lib, V) array, and no (n_lib, V, d) tensor or V x V matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditioned, OutOfLibraryBounds
from .grids import Lattice

JITTER = 1e-10
VAR_FLOOR = 1e-12
# The keys of one block of rows of a neighbor-table build (`_ranked_sites`:
# 1310 rows of a 25-site box at m = 10).
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class CovarianceParams:
    """Exponential kernel C(s,t) = alpha * exp(-rho * ||s - t||)."""

    alpha: float
    rho: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.rho > 0):
            raise ValueError(f"alpha and rho must be > 0, got {self.alpha}, {self.rho}")


def cov_matrix(a, b, params):
    """Cross-covariance matrix between location stacks a (n,d) and b (m,d)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    return params.alpha * np.exp(-params.rho * dist)


def dense_kriging(source, target, params):
    """Exact GP conditional of target sites given source sites.

    Returns (P, S): conditional mean is P @ x_source, conditional covariance
    is S (symmetric PSD up to jitter). This is the dense oracle the NNGP
    approximations are tested against.
    """
    source = np.atleast_2d(np.asarray(source, dtype=float))
    target = np.atleast_2d(np.asarray(target, dtype=float))
    sigma = cov_matrix(source, source, params)
    sigma[np.diag_indices_from(sigma)] += JITTER * params.alpha
    c_ts = cov_matrix(target, source, params)
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned("source covariance not PD after jitter") from exc
    p = np.linalg.solve(chol.T, np.linalg.solve(chol, c_ts.T)).T
    s = cov_matrix(target, target, params) - p @ c_ts.T
    return p, 0.5 * (s + s.T)


def dense_gp_log_density(values, locations, params):
    """Log density of a mean-zero GP with the exponential kernel (oracle)."""
    values = np.asarray(values, dtype=float)
    sigma = cov_matrix(locations, locations, params)
    sigma[np.diag_indices_from(sigma)] += JITTER * params.alpha
    chol = np.linalg.cholesky(sigma)
    half = np.linalg.solve(chol, values.T if values.ndim == 2 else values)
    quad = np.sum(half * half, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    n = sigma.shape[0]
    out = -0.5 * (n * np.log(2.0 * np.pi) + logdet + quad)
    return float(out) if np.ndim(out) == 0 else out


def _site_coords(shape, low=0):
    """(n, d) integer index coordinates of every site of a grid, row-major, from `low`."""
    return np.stack(np.unravel_index(np.arange(int(np.prod(shape))), shape), axis=-1) + low


def _nearest(d2, k):
    """The first k columns of a stable argsort of each row of d2, so ties go
    to the smaller column."""
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def _ranked_sites(points, lattice, k, predecessors=False):
    """The k lattice sites nearest each of `points`, (n, d) integer index
    coordinates: the first k columns of each row's stable argsort of its keys
    over all V sites, so ties go to the smaller index; (n, k). With
    `predecessors`, point l is site l and only the sites before it count: the
    others' keys are inf, and a row of fewer than k predecessors ends in -1s.

    A site's key is the sum over axes, axis 0 first, of w_a (p_a - s_a)^2,
    w_a = (spacing_a / finest spacing)^2. Each row is ranked (`_nearest`)
    over the sites of a box of (2 r + 1)^d sites around its nearest lattice
    site, shifted inside the lattice at its edges, r the least whose box
    holds 2k sites or the whole lattice; the box's columns run in site order. The row is kept if
    its k-th key is strictly below the smallest key of any site outside the
    box: that of the outside site nearest along one axis and at the row's
    nearest site on the others. Then every site ranked at or above the k-th
    lies in the box, and the box ranks them as the whole row does. Other rows
    are ranked again in a box of radius 2r, and the whole lattice is the last
    box. Rows are ranked in blocks of about _BLOCK_BYTES of keys.
    """
    shape = np.asarray(lattice.shape)
    weight = (lattice.spacing / lattice.spacing.min()) ** 2

    def keys(diff):
        return sum(w * diff[..., a] ** 2 for a, w in enumerate(weight))

    near = np.clip(points, 0, shape - 1)
    sites = np.empty((len(points), k), dtype=int)
    radius = 1
    while np.prod(np.minimum(2 * radius + 1, shape)) < min(2 * k, lattice.n_sites):
        radius += 1
    pending = np.arange(len(points))
    while pending.size:
        width = np.minimum(2 * radius + 1, shape)
        box = _site_coords(width)
        flat_box = np.ravel_multi_index(tuple(box.T), lattice.shape)
        step = max(1, _BLOCK_BYTES // (8 * len(box)))
        failed = []
        for start in range(0, pending.size, step):
            rows = pending[start:start + step]
            p, c = points[rows], near[rows]
            lo = np.clip(c - radius, 0, shape - width)
            key = keys(p[:, None, :] - lo[:, None, :] - box)
            cols = np.ravel_multi_index(tuple(lo.T), lattice.shape)[:, None] + flat_box
            if predecessors:
                key[cols >= rows[:, None]] = np.inf
            pick = _nearest(key, k)
            pick_keys = np.take_along_axis(key, pick, axis=1)
            bound = np.full(len(rows), np.inf)
            for a in range(len(shape)):
                for s, outside in ((lo[:, a] - 1, lo[:, a] > 0),
                                   (lo[:, a] + width[a], lo[:, a] + width[a] < shape[a])):
                    at = c.copy()
                    at[:, a] = s
                    bound = np.where(outside, np.minimum(bound, keys(p - at)), bound)
            kept = (len(box) == lattice.n_sites) | (pick_keys[:, -1] < bound)
            sites[rows[kept]] = np.where(pick_keys[kept] < np.inf,
                                         np.take_along_axis(cols[kept], pick[kept], axis=1), -1)
            failed.append(rows[~kept])
        pending = np.concatenate(failed)
        radius *= 2
    return sites


def build_ordered_neighbor_sets(lattice, m):
    """m-nearest predecessors of each lattice site in row-major order.

    Returns a (V, m) int array padded with -1: row l holds the min(m, l)
    sites among {0, ..., l-1} nearest to site l, ranked by the keys the
    library ranks (`_ranked_sites`), ties toward the smaller index.
    """
    sites = _site_coords(lattice.shape)
    k = min(m, len(sites))
    out = np.full((len(sites), m), -1, dtype=int)
    out[:, :k] = _ranked_sites(sites, lattice, k, predecessors=True)
    return out


def _pattern_table(keys):
    """Pattern id of every row of a 2-D key table, and each pattern's first row.

    Rows are grouped by their bytes, by one 1-D np.unique over a void view, so
    float keys group by their bits; ids follow the byte order of the rows.
    """
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).reshape(-1)
    _, first, ids = np.unique(rows, return_index=True, return_inverse=True)
    return ids, first


def _key_type(lattice):
    """The least integer type that holds every lattice offset, for grouping keys."""
    return np.min_scalar_type(-max(lattice.shape))


def _offset_distances(offsets, spacing):
    """(P, k, k) distances between the k lattice offsets of each pattern."""
    diff = (offsets[:, :, None, :] - offsets[:, None, :, :]) * spacing
    return np.sqrt(np.einsum("pkjd,pkjd->pkj", diff, diff))


@dataclass(frozen=True, eq=False)
class NeighborLibrary:
    """Precomputed m-nearest-in-template sets over an enlarged lattice.

    The enlarged lattice extends the template lattice by `margin` grid steps
    on every side. Lookup maps a continuous point to its nearest enlarged
    lattice site (half-up rounding per axis) and returns that site's
    precomputed neighbor set, its sites in lattice order (ascending index),
    not ranked by distance. Every entry's set is a row of the pattern table:
    `pattern_dist[pattern_ids[entry]]` is the distance matrix between its
    sites. Immutable after construction.
    """

    template: Lattice
    enlarged: Lattice
    margin: int
    m: int
    neighbor_indices: np.ndarray = field(repr=False)  # (n_lib, min(m, V)) int, ascending
    pattern_ids: np.ndarray = field(repr=False)       # (n_lib,) int
    pattern_dist: np.ndarray = field(repr=False)      # (P, k, k) neighbor distances


def build_neighbor_library(lattice, margin, m):
    """The m-nearest template sites of every site of the lattice grown by `margin` steps."""
    margin = int(margin)
    if margin < 0:
        raise ValueError("margin must be >= 0")
    enlarged = Lattice(
        shape=tuple(n + 2 * margin for n in lattice.shape),
        spacing=lattice.spacing,
        origin=lattice.origin - margin * lattice.spacing,
    )
    template = _site_coords(lattice.shape)
    k = min(m, lattice.n_sites)
    # The selection ranks; each set is then listed in lattice order.
    neighbor_indices = np.sort(_ranked_sites(_site_coords(enlarged.shape, -margin), lattice, k),
                               axis=1)
    # Group by offset shape, then merge the shapes whose distance matrices
    # are equal bit for bit, keyed on the matrices' bits.
    offsets = template[neighbor_indices] - template[neighbor_indices[:, :1]]
    shape_ids, first = _pattern_table(offsets.reshape(len(offsets), -1).astype(_key_type(lattice)))
    shape_dist = _offset_distances(offsets[first], lattice.spacing)
    dist_ids, first = _pattern_table(shape_dist.reshape(len(shape_dist), -1))
    return NeighborLibrary(template=lattice, enlarged=enlarged, margin=margin,
                           m=m, neighbor_indices=neighbor_indices,
                           pattern_ids=dist_ids[shape_ids], pattern_dist=shape_dist[first])


@dataclass(frozen=True, eq=False)
class PredecessorPatterns:
    """The template's NNGP rows, site l given its ordered predecessors, grouped
    by relative shape (`predecessor_patterns`)."""

    nbr: np.ndarray = field(repr=False)          # (V, k) predecessors, padded slots at the site
    ids: np.ndarray = field(repr=False)          # (V,) each site's pattern, a row of the next two
    dist: np.ndarray = field(repr=False)         # (P, k, k) between neighbors, padding marked
    target_dist: np.ndarray = field(repr=False)  # (P, k) site to neighbors, inf where padded


def predecessor_patterns(lattice, neighbor_sets):
    """Group the `build_ordered_neighbor_sets` rows of `lattice` by relative
    shape (offsets in lattice steps, padding marked), with each shape's
    distance matrix and target distances.

    Only the first k = min(m, V) columns of the sets are read; a site has at
    most V - 1 predecessors.
    """
    k = min(neighbor_sets.shape[1], lattice.n_sites)
    sets = neighbor_sets[:, :k]
    mask = sets >= 0
    nbr = np.where(mask, sets, np.arange(len(sets))[:, None])
    coords = _site_coords(lattice.shape)
    # Offsets are 0 at the padded slots. Only the patterns' own are kept.
    key = _key_type(lattice)
    ids, first = _pattern_table(np.concatenate(
        [(coords[nbr] - coords[:, None, :]).reshape(len(nbr), -1).astype(key),
         mask.astype(key)], axis=1))
    offsets = coords[nbr[first]] - coords[first, None, :]
    off, mask = offsets * lattice.spacing, mask[first]
    pair = mask[:, :, None] & mask[:, None, :]
    nbr_dist = np.where(pair | np.eye(k, dtype=bool), _offset_distances(offsets, lattice.spacing),
                        np.inf)
    target_dist = np.where(mask, np.sqrt(np.einsum("pkd,pkd->pk", off, off)), np.inf)
    return PredecessorPatterns(nbr=nbr, ids=ids, dist=nbr_dist, target_dist=target_dist)


def locate_entries(points, library):
    """Library entry (flat enlarged-lattice index) of each continuous point,
    and whether the point lies in the library at all.

    points: (..., d). Returns (entries, inside), (...) each; an entry outside
    the library reads 0. A point is inside when it rounds (half-up per axis)
    into the enlarged lattice.
    """
    # A huge point overflows to an infinite index coordinate, quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        rounded = np.floor(library.enlarged.to_index_coords(points) + 0.5)
    shape = library.enlarged.shape
    # Checked on the floats: a NaN fails both comparisons, and neither a
    # non-finite nor a huge coordinate reaches the integer cast.
    inside = np.all((rounded >= 0) & (rounded < shape), axis=-1)
    idx = np.where(inside[..., None], rounded, 0.0).astype(int)
    flat = np.ravel_multi_index(tuple(idx[..., a] for a in range(len(shape))), shape)
    return flat, inside


def lookup_entries(points, library):
    """Library entry (flat enlarged-lattice index) of each continuous point.

    points: (q, d) or (d,). Returns (q,) ints (one int for a single point).
    Raises OutOfLibraryBounds if any point rounds outside the enlarged
    lattice — the caller should treat the move that produced it as rejected.
    """
    pts = np.asarray(points, dtype=float)
    flat, inside = locate_entries(np.atleast_2d(pts), library)
    if not np.all(inside):
        raise OutOfLibraryBounds("point outside the neighbor library")
    return flat[0] if pts.ndim == 1 else flat


def lookup_neighbors(points, library):
    """Neighbor sets for continuous points via the library.

    points: (q, d) or (d,). Returns (q, k) int indices into the template
    site list ((k,) for a single point). Raises OutOfLibraryBounds like
    `lookup_entries`.
    """
    return library.neighbor_indices[lookup_entries(points, library)]


def batched_nngp_weights(targets, neighbor_idx, source_locations, params):
    """Vectorized (B, F) for many targets with padded neighbor index rows.

    targets: (q, d); neighbor_idx: (q, k) int, -1-padded for rows with fewer
    neighbors. Padded slots get B = 0 and do not affect F. Rows with no
    neighbors at all get F = alpha (the marginal variance).
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    neighbor_idx = np.atleast_2d(neighbor_idx)
    q, k = neighbor_idx.shape
    if k == 0:
        return np.zeros((q, 0)), np.full(q, params.alpha)
    has_pad = bool(np.any(neighbor_idx[:, -1] < 0))
    safe_idx = np.where(neighbor_idx < 0, 0, neighbor_idx) if has_pad else neighbor_idx
    nbr = source_locations[safe_idx]  # (q, k, d)

    # Differences first, as in cov_matrix: |s|^2 + |t|^2 - 2 s.t would cancel.
    diff = nbr[:, :, None, :] - nbr[:, None, :, :]
    c_n = params.alpha * np.exp(-params.rho * np.sqrt(np.einsum("qkjd,qkjd->qkj", diff, diff)))

    dt = nbr - targets[:, None, :]
    c_t = params.alpha * np.exp(-params.rho * np.sqrt(np.einsum("qkd,qkd->qk", dt, dt)))

    if has_pad:
        # Neutralize padded rows/columns: identity there keeps the solve exact.
        mask = neighbor_idx >= 0
        pair = mask[:, :, None] & mask[:, None, :]
        c_n = np.where(pair, c_n, 0.0)
        eye = np.broadcast_to(np.eye(k), (q, k, k))
        c_n = c_n + np.where(pair, JITTER * params.alpha * eye, (~pair) * eye)
        c_t = np.where(mask, c_t, 0.0)
    else:
        idx = np.arange(k)
        c_n[:, idx, idx] += JITTER * params.alpha

    try:
        b = np.linalg.solve(c_n, c_t[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise IllConditioned("neighbor covariance not invertible after jitter") from exc
    f = params.alpha - np.einsum("qk,qk->q", b, c_t)
    return b, np.maximum(f, VAR_FLOOR * params.alpha)


def _correlations(dist, rho):
    """R + JITTER I of each (k, k) distance matrix of a (P, k, k) stack at decay rho."""
    r = np.exp(-rho * dist)
    diag = np.arange(r.shape[1])
    r[:, diag, diag] += JITTER
    return r


@dataclass(frozen=True, eq=False)
class KrigingFactor:
    """Unit-alpha kriging factors of a library's pattern table at one rho.

    The inverses are filled in on first use (`invert`): `inv[p]` holds
    pattern p's (R + JITTER I)^-1 only where `inverted[p]`.
    """

    rho: float
    inv: np.ndarray = field(repr=False)       # (P, k, k)
    inverted: np.ndarray = field(repr=False)  # (P,) bool

    def invert(self, ids, pattern_dist):
        """Invert every pattern among `ids` not inverted yet, in one call, from
        the library's (P, k, k) `pattern_dist`."""
        need = np.zeros(self.inverted.size, dtype=bool)
        need[ids] = True
        missing = np.flatnonzero(need & ~self.inverted)
        if not missing.size:
            return
        try:
            self.inv[missing] = np.linalg.inv(_correlations(pattern_dist[missing], self.rho))
        except np.linalg.LinAlgError as exc:
            raise IllConditioned("neighbor covariance not invertible after jitter") from exc
        self.inverted[missing] = True


def kriging_factor(library, rho):
    """The library's pattern table at decay `rho`, each pattern inverted as
    `library_weights` meets it."""
    shape = library.pattern_dist.shape
    return KrigingFactor(rho=float(rho), inv=np.empty(shape),
                         inverted=np.zeros(shape[0], dtype=bool))


def neighbor_distances(targets, nbr, source_locations):
    """Distances from each target to its neighbor sites, (..., k).

    targets (..., d) are the points, nbr (..., k) the indices of their
    neighbor sets in source_locations (V, d), as the library's
    `neighbor_indices` of their entries. The squared distances are summed
    axis by axis, so targets that are a view of axis-major points, (..., d)
    over (d, ...) memory, are read a contiguous row per axis. The distances
    depend on the targets only, not on rho or alpha, so a chain keeps them
    in its state and `library_weights` weights them at each rho.
    """
    d2 = None
    for axis in range(targets.shape[-1]):
        # np.take gathers these small tables about twice as fast as fancy indexing.
        dt = np.take(source_locations[:, axis], nbr)
        dt -= targets[..., axis, None]
        dt *= dt
        d2 = dt if d2 is None else np.add(d2, dt, out=d2)
    return np.sqrt(d2, out=d2)


def _variances(b, r_t, alpha, out=None):
    """F = alpha (1 - B . r_t) of each row, clamped at VAR_FLOOR * alpha; into `out`."""
    f = np.einsum("qk,qk->q", b, r_t, out=out)
    np.subtract(1.0, f, out=f)
    f *= alpha
    return np.maximum(f, VAR_FLOOR * alpha, out=f)


def _pattern_product(r_t, inv, out):
    """out = r_t inv^T, (n, k), by one gemm: a lone row is computed as a
    two-row product and its first row kept, since numpy hands a one-row
    product to gemv, whose last bits differ from gemm's."""
    if len(r_t) == 1:
        out[:] = np.matmul(np.repeat(r_t, 2, axis=0), inv.T)[:1]
    else:
        np.matmul(r_t, inv.T, out=out)


def library_weights(dist, ids, library, factor, alpha, out=None):
    """(B, F) of transformed sites' NNGP rows, each given the distances `dist`
    (q, k) from its target to its library entry's neighbor set and `ids`
    (q,), its entry's pattern, library.pattern_ids[entry]; into `out`, a
    (B, F) pair of (q, k) and (q,) arrays, if given.

    With dist = neighbor_distances(targets, library.neighbor_indices[entries],
    source_locations) the result equals batched_nngp_weights(targets,
    library.neighbor_indices[entries], source_locations,
    CovarianceParams(alpha, factor.rho)) up to rounding. The patterns the rows
    use are inverted first if the factor has not yet (`KrigingFactor.invert`).
    The rows are grouped by pattern, by a stable argsort of `ids` that is
    skipped when one pattern holds every row (every 1D library has one), and
    each group's B is one matrix product, r_t inv^T, by gemm
    (`_pattern_product`). So every row has the bits it has in a call of its
    own, whatever the other rows, their order and their patterns, and a
    stack of subjects weighs as a loop over them does.
    """
    r_t = np.exp(-factor.rho * dist)
    factor.invert(ids, library.pattern_dist)
    q, k = r_t.shape
    b, f = (np.empty((q, k)), np.empty(q)) if out is None else out
    if not q:
        return b, f
    if ids.min() == ids.max():
        _pattern_product(r_t, factor.inv[ids[0]], b)
        return b, _variances(b, r_t, alpha, out=f)
    # The rows go into b in pattern order, and each group's product into
    # r_t's buffer, so the call holds two (q, k) arrays, not four.
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    cuts = np.r_[0, np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1, q]
    r_sorted, b_sorted = np.take(r_t, order, axis=0, out=b, mode="clip"), r_t
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        _pattern_product(r_sorted[lo:hi], factor.inv[sorted_ids[lo]], b_sorted[lo:hi])
    f[order] = _variances(b_sorted, r_sorted, alpha)
    b[order] = b_sorted
    return b, f


def predecessor_weights(patterns, rho, alpha):
    """(B, F) of the template's predecessor patterns (`PredecessorPatterns`) at
    (alpha, rho), (P, k) and (P,): one row per pattern, solved by one batched
    np.linalg.solve; site l's row is its pattern's, patterns.ids[l]. Padded
    slots get B = 0 exactly (see the pattern cache in the module docstring).
    """
    r_t = np.exp(-rho * patterns.target_dist)
    try:
        b = np.linalg.solve(_correlations(patterns.dist, rho), r_t[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise IllConditioned("neighbor covariance not invertible after jitter") from exc
    return b, _variances(b, r_t, alpha)


def conditional_means(values, neighbor_idx, weights):
    """B_l . x(N_l) for each row, honoring -1 padding; rows may be stacked, (..., k)."""
    # Padding sits at the ends of rows; a min is cheaper than any(< 0).
    if neighbor_idx.size and neighbor_idx[..., -1].min() < 0:
        mask = neighbor_idx >= 0
        safe_idx = np.where(mask, neighbor_idx, 0)
        return np.einsum("...k,...k->...", weights, values[safe_idx] * mask)
    return np.einsum("...k,...k->...", weights, values[neighbor_idx])


def nngp_log_density_from_weights(target_values, means, f, axis=None):
    """Sum of per-site normal log densities N(x_l | mu_l, F_l), mu_l = B_l x(N_l)
    the conditional means of `conditional_means`: a float, or, with `axis`,
    the sums along that axis of stacked rows."""
    resid = target_values - means
    total = -0.5 * np.sum(np.log(2.0 * np.pi * f) + resid * resid / f, axis=axis)
    return float(total) if axis is None else total


def nngp_log_density(values, neighbor_idx, locations, params):
    """Joint NNGP log density of `values` on `locations` with the given sets."""
    values = np.asarray(values, dtype=float)
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    b, f = batched_nngp_weights(locations, neighbor_idx, locations, params)
    return nngp_log_density_from_weights(values, conditional_means(values, neighbor_idx, b), f)
