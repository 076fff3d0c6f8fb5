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
by selection (`_nearest`), not by sorting every row: a partition finds each
row's k-th smallest distance, and only the distances at or below it are
sorted. Rows are ranked in blocks sized so that one (rows, V) array takes
`_BLOCK_BYTES`, so the builds need O(V) memory per block row instead of an
(n_lib, V, d) tensor or a V x V matrix, and O(V) time per row plus the sort
of its candidates (k, and any ties at the k-th distance), not O(V log V).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import IllConditioned, OutOfLibraryBounds
from .grids import Lattice

JITTER = 1e-10
VAR_FLOOR = 1e-12
# One (rows, V) array of a neighbor-table build block. The builds hold a few
# such arrays at once, and smaller blocks build faster too: on a 28x28
# lattice with margin 9 the library took 16-22 ms at 256 kB against 28-38 ms
# at 4 MB, and the predecessor sets 5-7 ms against 10-13 ms. Since the template
# step keeps its pair buffers (`sampler.TemplateBand`), sweep speed does not
# depend on the block: glyph28 sweeps ran at 76-102/s after a build with
# 256 kB blocks and 76-109/s with 4 MB ones (fresh processes, one core of a
# 2-core x86-64 machine), where a sweep that allocated several MB of
# temporaries ran a third slower with small blocks, glibc having sized its
# mmap threshold from the largest block freed. `library_weights` gathers its
# per-row inverses in chunks of the same size, into one buffer that the
# library holds (`NeighborLibrary.gather`).
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


def _offset_d2(points, lattice):
    """(len(points), V) squared distances from integer index coordinates to
    every site of the lattice, in row-major site order, formed from the index
    offsets in units of the finest spacing: integers when the spacing is
    equal on every axis, so equal distances compare equal.

    One (len(points), n) table per axis, broadcast over the grid and summed.
    """
    shape = lattice.shape
    weight = (lattice.spacing / lattice.spacing.min()) ** 2
    return sum(
        (w * (points[:, axis, None] - np.arange(n)) ** 2).reshape(
            (len(points),) + tuple(n if a == axis else 1 for a in range(len(shape))))
        for axis, (n, w) in enumerate(zip(shape, weight))).reshape(len(points), -1)


def _nearest(d2, k):
    """The first k columns of np.argsort(d2, axis=1, kind="stable"), 1 <= k <= d2.shape[1].

    Selection, not a full sort: np.partition finds each row's k-th smallest
    value, and only the entries at or below it, ties included, are sorted,
    by row and then value, stably from ascending column order. So ties go to
    the smaller column as in the full sort, for any float keys.
    """
    n = d2.shape[1]
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    flat = np.flatnonzero(d2 <= kth)
    row = flat // n
    flat = flat[np.lexsort((d2.reshape(-1)[flat], row))]
    counts = np.bincount(row, minlength=len(d2))
    return flat[(np.cumsum(counts) - counts)[:, None] + np.arange(k)] % n


def build_ordered_neighbor_sets(lattice, m):
    """m-nearest predecessors of each lattice site in row-major order.

    Returns a (V, m) int array padded with -1: row l holds the min(m, l)
    sites among {0, ..., l-1} nearest to site l, ranked by the distances the
    library ranks (`_offset_d2`), ties toward the smaller index.
    """
    sites = _site_coords(lattice.shape)
    v = len(sites)
    k = min(m, v)
    out = np.full((v, m), -1, dtype=int)
    rows = max(1, _BLOCK_BYTES // (8 * v))
    for start in range(0, v, rows):
        stop = min(start + rows, v)
        d2 = _offset_d2(sites[start:stop], lattice)
        d2[np.arange(start, stop)[:, None] <= np.arange(v)] = np.inf   # not predecessors
        nearest = _nearest(d2, k)
        # Row l < k selects its l predecessors, then k - l non-predecessors at inf.
        out[start:stop, :k] = np.where(np.take_along_axis(d2, nearest, axis=1) < np.inf,
                                       nearest, -1)
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
    entries = _site_coords(enlarged.shape, -margin)
    k = min(m, lattice.n_sites)
    rows = max(1, _BLOCK_BYTES // (8 * lattice.n_sites))
    neighbor_indices = np.empty((len(entries), k), dtype=int)
    for start in range(0, len(entries), rows):
        neighbor_indices[start:start + rows] = _nearest(
            _offset_d2(entries[start:start + rows], lattice), k)
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
    offsets = coords[nbr] - coords[:, None, :]          # 0 at the padded slots
    ids, first = _pattern_table(np.concatenate([offsets.reshape(len(offsets), -1), mask], axis=1))
    off, mask = offsets[first] * library.template.spacing, mask[first]
    pair = mask[:, :, None] & mask[:, None, :]
    nbr_dist = np.where(pair | np.eye(k, dtype=bool),
                        _offset_distances(offsets[first], library.template.spacing), np.inf)
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
