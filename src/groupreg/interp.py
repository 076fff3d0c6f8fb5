"""Catmull-Rom cubic interpolation of lattice maps at arbitrary locations.

Used for Y_i evaluated at reverse-transformed sites and for inverse warping.
2D interpolation is separable: the 1D kernel is applied per axis over a 4x4
stencil. Values outside the lattice are 0: activation maps decay to baseline
outside the region of interest.

The kernel is one gather for 1D and 2D alike. The grid is padded by `_PAD`
zero sites per side, so every stencil that touches the lattice lies inside
the padded grid and needs no mask. Index coordinates are clipped to
[-3, n + 1] per axis before the floor: a stencil based there lies wholly in
the padding, and so does the stencil of every clipped point, which
therefore reads zeros as it would unclipped; the clip also keeps the
integer cast defined for any finite query. Stencil values come from one
`take` at precomputed flat offsets, weights are [1, t, t^2, t^3] @ `_M_CR`,
and the 2D contraction runs one axis at a time. A query point that is not
finite gives NaN.
"""

from __future__ import annotations

import numpy as np

# Catmull-Rom basis: the weights of p_{-1}, p_0, p_1, p_2 at fractional
# offset t from p_0 are [1, t, t^2, t^3] @ _M_CR.
_M_CR = 0.5 * np.array([[0.0, 2.0, 0.0, 0.0],
                        [-1.0, 0.0, 1.0, 0.0],
                        [2.0, -5.0, 4.0, -1.0],
                        [-1.0, 3.0, -3.0, 1.0]])

# A stencil based at n + 1 spans sites n .. n + 3, so 4 zero sites per side
# hold every stencil the clip allows.
_PAD = 4


def _padded(grid):
    # Slice assignment into zeros: np.pad costs about ten times as much per call.
    out = np.zeros(tuple(n + 2 * _PAD for n in grid.shape))
    out[(slice(_PAD, -_PAD),) * grid.ndim] = grid
    return out


def interpolate(amap, points):
    """Cubic interpolation of an activation map at query points.

    points: (q, d) array (or (d,) for a single point). Returns values (q,)
    (or a scalar). The lattice needs at least 4 sites per axis; queries may
    be anywhere, with stencil values outside the lattice read as 0. Points
    with a NaN or infinite coordinate give NaN.
    """
    lat = amap.lattice
    if any(n < 4 for n in lat.shape):
        raise ValueError("cubic interpolation needs >= 4 sites per axis")
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    # Index coordinates axis-major, (d, q): every step below then runs over
    # the query points in long contiguous rows.
    u = np.ascontiguousarray(lat.to_index_coords(pts).T)
    q = u.shape[1]
    # One sum tells whether every coordinate is finite (or some sum overflows).
    all_finite = np.isfinite(u.sum())
    if not all_finite:
        finite = np.isfinite(u).all(axis=0)
        u = np.where(finite, u, 0.0)

    u = np.clip(u, -3.0, np.asarray(lat.shape, dtype=float)[:, None] + 1.0)
    base = np.floor(u)
    padded = _padded(amap.grid)
    # Flat index of each stencil's first site (base - 1 per axis), and the
    # flat offsets of the 4^d stencil sites from it.
    strides = np.asarray(padded.strides) // padded.itemsize
    first = (strides @ base + (_PAD - 1) * strides.sum()).astype(np.intp)
    offsets = np.arange(4)
    if lat.dim == 2:
        offsets = (offsets[:, None] * strides[0] + offsets).ravel()
    vals = padded.take(offsets[:, None] + first)        # (4^d, q)

    t = (u - base).ravel()
    powers = np.empty((4, t.size))
    powers[0] = 1.0
    powers[1] = t
    np.multiply(t, t, out=powers[2])
    np.multiply(powers[2], t, out=powers[3])
    w = _M_CR.T @ powers                                # (4, d q)
    if lat.dim == 1:
        out = np.einsum("kq,kq->q", w, vals)
    else:
        inner = np.einsum("jkq,kq->jq", vals.reshape(4, 4, q), w[:, q:])
        out = np.einsum("jq,jq->q", w[:, :q], inner)
    if not all_finite:
        out[~finite] = np.nan
    return float(out[0]) if single else out

