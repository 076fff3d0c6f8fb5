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
C = alpha (R(rho) + JITTER I). Library entries and template predecessor sets
are therefore grouped into patterns when they are built, each stored as its
k x k distance matrix. A library pattern is a distinct distance matrix:
entries are grouped by offset shape (their neighbors' offsets in lattice
steps), and shapes whose matrices are equal bit for bit, such as mirror
images, are merged, so equal matrices get one inverse and bit-identical
weights (88 matrices from 330 offset shapes for the 2116 entries of a 28x28
lattice with margin 9 and m = 10). A predecessor pattern is an offset shape
with its padding marked (26 on that lattice, all with distinct matrices).
A `KrigingFactor` holds, for one rho, (R + JITTER I)^-1 per library pattern
and the unit-alpha weights of every predecessor pattern; weights for any
alpha follow as B = (R + JITTER I)^-1 r_t and F = alpha (1 - B . r_t), with
r_t = exp(-rho d_t) from the target-to-neighbor distances d_t of
`neighbor_distances`, so a weights call costs k exps per row and one small
mat-vec instead of a k x k solve. The tables take P k^2 doubles per family
(about 70 kB for the 28x28 library) plus one int per entry or site.
`batched_nngp_weights` re-solves every row and stays the brute-force oracle
the cache is checked against.

Library build. Entries are ranked by squared distances formed from integer
lattice offsets, not from differenced coordinates, so an entry's neighbor
set depends only on its offsets from the template sites, never on the
margin or the origin. With equal spacing on every axis those distances are
integers in units of the spacing, so equal distances compare equal and ties
break toward the smaller index. Entries are ranked in row blocks sized so
that one (rows, V) array takes `_BLOCK_BYTES`: the build needs O(V) memory
per block row instead of an (n_lib, V, d) tensor, and O(n_lib V log V) time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditioned, OutOfLibraryBounds
from .grids import Lattice

JITTER = 1e-10
VAR_FLOOR = 1e-12
# One (rows, V) array of a library build block. The build holds a few such
# arrays at once, and smaller blocks build faster too: on a 28x28 lattice
# with margin 9, 76 ms at 256 kB against 120 ms at 4 MB. Since the template
# step keeps its pair buffers (`sampler.TemplateBand`), sweep speed does not
# depend on the block: glyph28 sweeps ran at 76-102/s after a build with
# 256 kB blocks and 76-109/s with 4 MB ones (fresh processes, one core of a
# 2-core x86-64 machine), where a sweep that allocated several MB of
# temporaries ran a third slower with small blocks, glibc having sized its
# mmap threshold from the largest block freed. `library_weights` gathers its
# per-row inverses in chunks of the same size.
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


def build_ordered_neighbor_sets(locations, m):
    """m-nearest predecessors of each site in row-major order.

    Returns an (V, m) int array padded with -1: row l holds the indices of
    the min(m, l) nearest sites among {0, ..., l-1}, ties broken by smaller
    index (stable sort).
    """
    locs = np.atleast_2d(np.asarray(locations, dtype=float))
    v = locs.shape[0]
    out = np.full((v, m), -1, dtype=int)
    for l in range(1, v):
        k = min(m, l)
        d = np.linalg.norm(locs[:l] - locs[l], axis=1)
        order = np.argsort(d, kind="stable")[:k]
        out[l, :k] = order
    return out


def _site_coords(shape, low=0):
    """(n, d) integer index coordinates of every site of a grid, row-major, from `low`."""
    return np.stack(np.unravel_index(np.arange(int(np.prod(shape))), shape), axis=-1) + low


def _pattern_table(keys):
    """Pattern id of every row of an integer key table, and each pattern's first row."""
    _, first, ids = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return ids.reshape(-1), first


def _offset_distances(offsets, spacing):
    """(P, k, k) distances between the k lattice offsets of each pattern."""
    diff = (offsets[:, :, None, :] - offsets[:, None, :, :]) * spacing
    return np.sqrt(np.einsum("pkjd,pkjd->pkj", diff, diff))


@dataclass(frozen=True, eq=False)
class PredecessorPatterns:
    """Distinct relative shapes of the template's ordered predecessor sets.

    A pattern is the offsets, in lattice steps, of a set's neighbors from
    its target site, with the -1 padding marked; distances are stored
    instead of offsets so the kriging factor needs no lattice.
    """

    ids: np.ndarray = field(repr=False)          # (V,) pattern of each site
    nbr_dist: np.ndarray = field(repr=False)     # (P, m, m); padded slots unused
    target_dist: np.ndarray = field(repr=False)  # (P, m); padded slots unused
    mask: np.ndarray = field(repr=False)         # (P, m) bool, False where padded


def build_predecessor_patterns(lattice, neighbor_sets):
    """Group `build_ordered_neighbor_sets` rows of a lattice by relative shape."""
    coords = _site_coords(lattice.shape)
    mask = neighbor_sets >= 0
    offsets = np.where(mask[:, :, None], coords[np.where(mask, neighbor_sets, 0)]
                       - coords[:, None, :], 0)
    ids, first = _pattern_table(
        np.concatenate([offsets.reshape(len(offsets), -1), mask], axis=1))
    off, mask = offsets[first], mask[first]
    scaled = off * lattice.spacing
    return PredecessorPatterns(ids=ids, nbr_dist=_offset_distances(off, lattice.spacing),
                               target_dist=np.sqrt(np.einsum("pkd,pkd->pk", scaled, scaled)),
                               mask=mask)


@dataclass(frozen=True, eq=False)
class NeighborLibrary:
    """Precomputed m-nearest-in-template sets over an enlarged lattice.

    The enlarged lattice extends the template lattice by `margin` grid steps
    on every side. Lookup maps a continuous point to its nearest enlarged
    lattice site (half-up rounding per axis) and returns that site's
    precomputed neighbor set. Immutable after construction.
    """

    template: Lattice
    enlarged: Lattice
    margin: int
    m: int
    neighbor_indices: np.ndarray = field(repr=False)  # (n_lib, min(m, V)) int
    # Entries grouped by the distance matrix of their neighbor sets.
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
    entries = _site_coords(enlarged.shape, -margin)
    # Squared distance in units of the finest spacing: integers when the
    # spacing is equal on every axis, so equal distances compare equal.
    axis_weight = (lattice.spacing / lattice.spacing.min()) ** 2
    k = min(m, lattice.n_sites)
    rows = max(1, _BLOCK_BYTES // (8 * lattice.n_sites))
    neighbor_indices = np.empty((len(entries), k), dtype=int)
    for start in range(0, len(entries), rows):
        block = entries[start:start + rows]
        dist2 = sum(w * (block[:, None, a] - template[None, :, a]) ** 2
                    for a, w in enumerate(axis_weight))
        neighbor_indices[start:start + rows] = np.argsort(dist2, axis=1, kind="stable")[:, :k]
    # Group by offset shape, then merge the shapes whose distance matrices
    # are equal bit for bit (mirror images are), keyed on the matrices' bits.
    offsets = template[neighbor_indices] - template[neighbor_indices[:, :1]]
    shape_ids, first = _pattern_table(offsets.reshape(len(offsets), -1))
    shape_dist = _offset_distances(offsets[first], lattice.spacing)
    dist_ids, first = _pattern_table(shape_dist.reshape(len(shape_dist), -1).view(np.int64))
    return NeighborLibrary(template=lattice, enlarged=enlarged, margin=margin,
                           m=m, neighbor_indices=neighbor_indices,
                           pattern_ids=dist_ids[shape_ids], pattern_dist=shape_dist[first])


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
    """Unit-alpha kriging factors of every neighbor pattern at one rho."""

    rho: float
    library_inv: np.ndarray = field(repr=False)   # (P_lib, k, k): (R + JITTER I)^-1
    template_b: np.ndarray = field(repr=False)    # (P_t, m) predecessor weights B
    template_f: np.ndarray = field(repr=False)    # (P_t,) F / alpha, floored


def kriging_factor(library, predecessors, rho):
    """Factor the library and predecessor patterns at decay `rho`."""
    r = np.exp(-rho * library.pattern_dist)
    diag = np.arange(r.shape[1])
    r[:, diag, diag] += JITTER
    try:
        library_inv = np.linalg.inv(r)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned("neighbor covariance not invertible after jitter") from exc

    # Padded slots get an identity row/column and r_t = 0, hence B = 0, as in
    # batched_nngp_weights; a site without predecessors gets F = alpha.
    mask = predecessors.mask
    pair = mask[:, :, None] & mask[:, None, :]
    m = mask.shape[1]
    r = np.where(pair, np.exp(-rho * predecessors.nbr_dist) + JITTER * np.eye(m), np.eye(m))
    r_t = np.where(mask, np.exp(-rho * predecessors.target_dist), 0.0)
    try:
        b = np.linalg.solve(r, r_t[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise IllConditioned("neighbor covariance not invertible after jitter") from exc
    f = np.maximum(1.0 - np.einsum("pk,pk->p", b, r_t), VAR_FLOOR)
    return KrigingFactor(rho=float(rho), library_inv=library_inv, template_b=b, template_f=f)


def neighbor_distances(targets, entries, library, source_locations):
    """(q, k) distances from each target to its library entry's neighbor sites.

    They depend on the targets only, not on rho or alpha, so a chain keeps
    them in its state and `library_weights` weights them at each rho.
    """
    # np.take gathers these small tables about twice as fast as fancy indexing.
    nbr = np.take(library.neighbor_indices, entries, axis=0)
    dt = np.take(source_locations, nbr, axis=0) - targets[:, None, :]
    return np.sqrt(np.einsum("qkd,qkd->qk", dt, dt))


def library_weights(dist, entries, library, factor, alpha):
    """(B, F) of targets conditioned on their library entries' neighbor sets.

    With dist = neighbor_distances(targets, entries, library, source_locations),
    equals batched_nngp_weights(targets, library.neighbor_indices[entries],
    source_locations, CovarianceParams(alpha, factor.rho)) up to rounding.
    Each row's k x k inverse is gathered and contracted in chunks of about
    _BLOCK_BYTES, so a call over many rows holds one chunk of them, not one
    per row; each row's B is the same whatever the chunk.
    """
    r_t = np.exp(-factor.rho * dist)
    ids = np.take(library.pattern_ids, entries)
    q, k = r_t.shape
    rows = max(1, _BLOCK_BYTES // (8 * k * k))
    b = np.empty((q, k))
    for start in range(0, q, rows):
        part = slice(start, start + rows)
        inv = np.take(factor.library_inv, ids[part], axis=0)
        np.einsum("qkj,qj->qk", inv, r_t[part], out=b[part])
    f = alpha * (1.0 - np.einsum("qk,qk->q", b, r_t))
    return b, np.maximum(f, VAR_FLOOR * alpha)


def predecessor_weights(predecessors, factor, alpha):
    """(B, F) of every template site given its ordered predecessor set."""
    return factor.template_b[predecessors.ids], alpha * factor.template_f[predecessors.ids]


def conditional_means(values, neighbor_idx, weights):
    """B_l . x(N_l) for each row, honoring -1 padding; rows may be stacked, (..., k)."""
    # Padding sits at the ends of rows; a min is cheaper than any(< 0).
    if neighbor_idx.size and neighbor_idx[..., -1].min() < 0:
        mask = neighbor_idx >= 0
        safe_idx = np.where(mask, neighbor_idx, 0)
        return np.einsum("...k,...k->...", weights, values[safe_idx] * mask)
    return np.einsum("...k,...k->...", weights, values[neighbor_idx])


def nngp_log_density_from_weights(values, target_values, neighbor_idx, weights, f, axis=None):
    """Sum of per-site normal log densities N(x_l | B_l x(N_l), F_l): a float,
    or, with `axis`, the sums along that axis of stacked rows."""
    means = conditional_means(values, neighbor_idx, weights)
    resid = target_values - means
    total = -0.5 * np.sum(np.log(2.0 * np.pi * f) + resid * resid / f, axis=axis)
    return float(total) if axis is None else total


def nngp_log_density(values, neighbor_idx, locations, params):
    """Joint NNGP log density of `values` on `locations` with the given sets."""
    values = np.asarray(values, dtype=float)
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    b, f = batched_nngp_weights(locations, neighbor_idx, locations, params)
    return nngp_log_density_from_weights(values, values, neighbor_idx, b, f)
