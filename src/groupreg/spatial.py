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
C = alpha (R(rho) + JITTER I). Every NNGP row, a transformed site given its
library entry's neighbor set or a template site given its ordered
predecessors, is therefore a row of one table of patterns, each stored as its
k x k distance matrix (`NeighborLibrary.pattern_dist`). A library pattern is
a distinct distance matrix: entries are grouped by offset shape (their
neighbors' offsets in lattice steps), and shapes whose matrices are equal bit
for bit, such as mirror images, are merged, so equal matrices get one
inverse and bit-identical weights (88 matrices from 330 offset shapes for the
2116 entries of a 28x28 lattice with margin 9 and m = 10). A predecessor
pattern is an offset shape with its padding marked (26 on that lattice), and
`join_predecessor_patterns` appends these to the library's table. A padded
slot is at distance 0 from itself and inf from every other slot and from the
target, so at any rho > 0 its R row and column are those of the identity
and its r_t is 0: it gets B = 0 exactly and leaves F as the row without it
has it, as in `batched_nngp_weights`. A `KrigingFactor` holds, for one rho,
(R + JITTER I)^-1 of the patterns met so far; weights for any alpha follow
as B = (R + JITTER I)^-1 r_t and F = alpha (1 - B . r_t), with
r_t = exp(-rho d_t) from the target-to-neighbor distances d_t, so a weights
call (`library_weights`) costs k exps per row and one small mat-vec instead
of a k x k solve. The template's rows are weighed once per predecessor
pattern and gathered by site. A pattern is inverted only when
`library_weights` first meets it at that rho (`KrigingFactor.invert`), one
`np.linalg.inv` over the patterns missing, with the bits of inverting all
of them at once: a chain's transformed sites use few of the library's
patterns (19 of the glyph's 88), and a rho proposal builds a new factor.
The table takes P k^2 doubles (about 90 kB for the 28x28 library) plus one
int per entry or site. `batched_nngp_weights` re-solves every row and stays
the brute-force oracle the cache is checked against.

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

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import IllConditioned, OutOfLibraryBounds
from .grids import Lattice

JITTER = 1e-10
VAR_FLOOR = 1e-12
# The keys of one block of rows of a neighbor-table build (`_ranked_sites`:
# 1310 rows of a 25-site box at m = 10), and one chunk of the per-row
# inverses that `library_weights` gathers, in every sweep, into one buffer
# that the library holds (`NeighborLibrary.gather`).
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
    precomputed neighbor set. Immutable after construction, but for the
    contents of `gather`, the buffer into which `library_weights` gathers
    each chunk of its rows' inverses, one chunk of about _BLOCK_BYTES. A
    fresh array per chunk lies above glibc's default 128 kB mmap threshold,
    and a new process could map it, and fault its pages in, anew on every
    call: a 1000-sweep `groupreg fit` of the indicator curves (sim 0, N = 3)
    took 185 000 minor faults and 0.25-0.32 s of system time that way, and
    8 500 faults and 0.03 s with a buffer kept across calls (x86-64 Linux,
    glibc's malloc defaults), writing the same samples.
    """

    template: Lattice
    enlarged: Lattice
    margin: int
    m: int
    neighbor_indices: np.ndarray = field(repr=False)  # (n_lib, min(m, V)) int
    # Entries grouped by the distance matrix of their neighbor sets; the
    # table holds their patterns, then any `join_predecessor_patterns` adds.
    pattern_ids: np.ndarray = field(repr=False)       # (n_lib,) int
    pattern_dist: np.ndarray = field(repr=False)      # (P, k, k) neighbor distances
    gather: np.ndarray = field(repr=False)            # (rows, k, k) scratch


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
    neighbor_indices = _ranked_sites(_site_coords(enlarged.shape, -margin), lattice, k)
    # Group by offset shape, then merge the shapes whose distance matrices
    # are equal bit for bit (mirror images are), keyed on the matrices' bits.
    offsets = template[neighbor_indices] - template[neighbor_indices[:, :1]]
    shape_ids, first = _pattern_table(offsets.reshape(len(offsets), -1))
    shape_dist = _offset_distances(offsets[first], lattice.spacing)
    dist_ids, first = _pattern_table(shape_dist.reshape(len(shape_dist), -1))
    return NeighborLibrary(template=lattice, enlarged=enlarged, margin=margin,
                           m=m, neighbor_indices=neighbor_indices,
                           pattern_ids=dist_ids[shape_ids], pattern_dist=shape_dist[first],
                           gather=np.empty((max(1, _BLOCK_BYTES // (8 * k * k)), k, k)))


@dataclass(frozen=True, eq=False)
class PredecessorPatterns:
    """The template's NNGP rows, site l given its ordered predecessors, as
    rows of a library's pattern table (`join_predecessor_patterns`)."""

    nbr: np.ndarray = field(repr=False)          # (V, k) predecessors, padded slots at the site
    ids: np.ndarray = field(repr=False)          # (V,) each site's pattern, a row of the next two
    rows: np.ndarray = field(repr=False)         # (P,) each pattern's row of the library's table
    target_dist: np.ndarray = field(repr=False)  # (P, k) site to neighbors, inf where padded


def join_predecessor_patterns(library, neighbor_sets):
    """Group the `build_ordered_neighbor_sets` rows of the library's template by
    relative shape (offsets in lattice steps, padding marked), and append the
    shapes' distance matrices to the library's pattern table.

    Only the first k = min(m, V) columns of the sets are read; a site has at
    most V - 1 predecessors. Returns (library, patterns): a library like the
    given one but for its longer `pattern_dist`, and the `PredecessorPatterns`.
    """
    k = library.neighbor_indices.shape[1]
    sets = neighbor_sets[:, :k]
    mask = sets >= 0
    nbr = np.where(mask, sets, np.arange(len(sets))[:, None])
    coords = _site_coords(library.template.shape)
    # Offsets are 0 at the padded slots. Only the patterns' own are kept.
    ids, first = _pattern_table(np.concatenate(
        [(coords[nbr] - coords[:, None, :]).reshape(len(nbr), -1), mask], axis=1))
    offsets = coords[nbr[first]] - coords[first, None, :]
    off, mask = offsets * library.template.spacing, mask[first]
    pair = mask[:, :, None] & mask[:, None, :]
    nbr_dist = np.where(pair | np.eye(k, dtype=bool),
                        _offset_distances(offsets, library.template.spacing), np.inf)
    target_dist = np.where(mask, np.sqrt(np.einsum("pkd,pkd->pk", off, off)), np.inf)
    n_lib = len(library.pattern_dist)
    return (replace(library, pattern_dist=np.concatenate([library.pattern_dist, nbr_dist])),
            PredecessorPatterns(nbr=nbr, ids=ids, rows=n_lib + np.arange(len(first)),
                                target_dist=target_dist))


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


@dataclass(frozen=True, eq=False)
class KrigingFactor:
    """Unit-alpha kriging factors of a pattern table at one rho, the library's
    `pattern_dist`: every NNGP row's, the template's and the subjects'.

    The inverses are filled in on first use (`invert`): `inv[p]` holds
    pattern p's (R + JITTER I)^-1 only where `inverted[p]`.
    """

    rho: float
    dist: np.ndarray = field(repr=False)      # (P, k, k) the library's pattern_dist
    inv: np.ndarray = field(repr=False)       # (P, k, k)
    inverted: np.ndarray = field(repr=False)  # (P,) bool

    def invert(self, ids):
        """Invert every pattern among `ids` not inverted yet, in one call."""
        need = np.zeros(self.inverted.size, dtype=bool)
        need[ids] = True
        missing = np.flatnonzero(need & ~self.inverted)
        if not missing.size:
            return
        r = np.exp(-self.rho * self.dist[missing])
        diag = np.arange(r.shape[1])
        r[:, diag, diag] += JITTER
        try:
            self.inv[missing] = np.linalg.inv(r)
        except np.linalg.LinAlgError as exc:
            raise IllConditioned("neighbor covariance not invertible after jitter") from exc
        self.inverted[missing] = True


def kriging_factor(library, rho):
    """The library's pattern table at decay `rho`, each pattern inverted as
    `library_weights` meets it."""
    dist = library.pattern_dist
    return KrigingFactor(rho=float(rho), dist=dist, inv=np.empty(dist.shape),
                         inverted=np.zeros(len(dist), dtype=bool))


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


def library_weights(dist, ids, library, factor, alpha, out=None):
    """(B, F) of NNGP rows, each given the distances `dist` (q, k) from its
    target to its neighbors and `ids` (q,), its pattern's row of the library's
    table; into `out`, a (B, F) pair of (q, k) and (q,) arrays, if given.

    A transformed site's pattern is its library entry's,
    library.pattern_ids[entry], and with dist = neighbor_distances(targets,
    library.neighbor_indices[entries], source_locations) the result equals
    batched_nngp_weights(targets, library.neighbor_indices[entries],
    source_locations, CovarianceParams(alpha, factor.rho)) up to rounding. A
    template site's is its predecessor pattern's, whose row this weighs
    once for every site of the pattern (`PredecessorPatterns`). The patterns
    the rows use are inverted first if the factor has not yet
    (`KrigingFactor.invert`). Each row's k x k inverse is gathered and
    contracted in chunks of about _BLOCK_BYTES, into the library's `gather`
    buffer, so a call holds one chunk of them, not one per row, and
    allocates none; each row's B is the same whatever the chunk. Rows are
    gathered, not grouped by pattern: on chain states a grouped einsum keeps
    these bits but took as long on glyph (2352 rows, 19 patterns) and ~2.5x
    as long on the 1D curves (243-603 rows, 9 patterns), and a grouped
    matmul changes the bits.
    """
    r_t = np.exp(-factor.rho * dist)
    factor.invert(ids)
    q, k = r_t.shape
    b, f = (np.empty((q, k)), np.empty(q)) if out is None else out
    rows = len(library.gather)
    for start in range(0, q, rows):
        part = slice(start, start + rows)
        inv = library.gather[:len(ids[part])]
        # mode="clip" writes straight into `out`; the default "raise" buffers it.
        np.take(factor.inv, ids[part], axis=0, out=inv, mode="clip")
        np.einsum("qkj,qj->qk", inv, r_t[part], out=b[part])
    np.einsum("qk,qk->q", b, r_t, out=f)
    np.subtract(1.0, f, out=f)
    f *= alpha
    return b, np.maximum(f, VAR_FLOOR * alpha, out=f)


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
