"""Catmull-Rom cubic interpolation of lattice maps at arbitrary locations.

Used for Y_i evaluated at reverse-transformed sites and for inverse warping.
2D interpolation is separable: the 1D kernel is applied per axis over a 4x4
stencil. Values outside the lattice are 0: activation maps decay to baseline
outside the region of interest.

One kernel, `_Stencil.sample`, serves 1D and 2D alike and takes index
coordinates axis-major, (d, q), so every step runs over the query points in
long contiguous rows. What depends only on the map is built once per
`_Stencil`: the grid padded by `_PAD` zero sites per side, so every stencil
that touches the lattice lies inside the padded grid and needs no mask; the
padded grid's strides; the flat offsets of the 4^d stencil sites; and the
clip bounds. Index coordinates are clipped to [-3, n + 1] per axis before
the floor: a stencil based there lies wholly in the padding, and so does the
stencil of every clipped point, which therefore reads zeros as it would
unclipped; the clip also keeps the integer cast defined for any finite
query. Stencil values come from one `take` at the flat offsets, weights are
[1, t, t^2, t^3] @ `_M_CR`, and the 2D contraction runs one axis at a time.
On request the kernel also returns the derivative along each index axis,
from the same stencil values with the weights [0, 1, 2t, 3t^2] @ `_M_CR`;
the Catmull-Rom interpolant is C^1, so this is its exact gradient. A query
point that is not finite gives NaN, and so does one whose image or index
coordinates overflow, without a warning.

Two entry points call that kernel:
- `interpolate(amap, points)` samples a map once at (q, d) points;
- `Warp(amap, sites)` samples one map at T(S) for many affine T and fixed
  sites S. It also keeps S as a (d, q) array, and `warp(h)`, h the matrix
  of T, computes the index coordinates (A S + b - origin) / spacing in that
  layout, which gives the bits of `interpolate(amap, affine_apply(h, sites))`.
  `warp.value_and_jacobian(top)` gives those values for the top d rows of a
  homogeneous matrix H, with their Jacobian in H's entries, from one kernel
  pass. The reverse-transform step evaluates one map at thousands of T, and
  each set-up transform fit (`sampler.fit_affine`) at its coarse grid and
  its Levenberg-Marquardt points, each point one `value_and_jacobian` call,
  so the per-map work is paid once, not per T.
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
MIN_AXIS_SITES = 4      # the stencil's width: fewer sites on an axis cannot be interpolated


def _padded(grid):
    # Slice assignment into zeros: np.pad costs about ten times as much per call.
    out = np.zeros(tuple(n + 2 * _PAD for n in grid.shape))
    out[(slice(_PAD, -_PAD),) * grid.ndim] = grid
    return out


class _Stencil:
    """The cubic kernel over one map, with everything that depends only on the map built."""

    def __init__(self, amap):
        lat = amap.lattice
        if any(n < MIN_AXIS_SITES for n in lat.shape):
            raise ValueError(f"cubic interpolation needs >= {MIN_AXIS_SITES} sites per axis")
        self.dim = lat.dim
        self._upper = np.asarray(lat.shape, dtype=float)[:, None] + 1.0
        self._padded = _padded(amap.grid)
        # Flat index of a stencil's first site (base - 1 per axis) is
        # strides @ base + _first, and the 4^d stencil sites lie at `_offsets` from it.
        self._strides = np.asarray(self._padded.strides) // self._padded.itemsize
        self._first = (_PAD - 1) * self._strides.sum()
        offsets = np.arange(4)
        if lat.dim == 2:
            offsets = (offsets[:, None] * self._strides[0] + offsets).ravel()
        self._offsets = offsets[:, None]

    def sample(self, u, deriv=False):
        """Values at index coordinates u, (d, q) and C-contiguous; returns (q,).

        With `deriv`, also the derivative along each index axis, (d, q), from
        the same stencil values with the weights [0, 1, 2t, 3t^2] @ `_M_CR`;
        the values keep their bits. Where the stencil reads only padding the
        derivative is 0, and where a query is not finite it is NaN.
        """
        q = u.shape[1]
        finite = np.isfinite(u)
        all_finite = finite.all()
        if not all_finite:
            finite = finite.all(axis=0)
            u = np.where(finite, u, 0.0)

        u = np.clip(u, -3.0, self._upper)
        base = np.floor(u)
        first = (self._strides @ base + self._first).astype(np.intp)
        vals = self._padded.take(self._offsets + first)        # (4^d, q)

        t = (u - base).ravel()
        powers = np.empty((4, t.size))
        powers[0] = 1.0
        powers[1] = t
        np.multiply(t, t, out=powers[2])
        np.multiply(powers[2], t, out=powers[3])
        w = _M_CR.T @ powers                                # (4, d q)
        if self.dim == 1:
            out = np.einsum("kq,kq->q", w, vals)
        else:
            vals = vals.reshape(4, 4, q)
            inner = np.einsum("jkq,kq->jq", vals, w[:, q:])
            out = np.einsum("jq,jq->q", w[:, :q], inner)
        if not all_finite:
            out[~finite] = np.nan
        if not deriv:
            return out

        powers[0] = 0.0
        powers[1] = 1.0
        np.multiply(t, 2.0, out=powers[2])
        np.multiply(3.0 * t, t, out=powers[3])
        dw = _M_CR.T @ powers                               # (4, d q)
        if self.dim == 1:
            grad = np.einsum("kq,kq->q", dw, vals)[None]
        else:
            grad = np.empty((2, q))
            np.einsum("jq,jq->q", dw[:, :q], inner, out=grad[0])
            np.einsum("jq,jq->q", w[:, :q], np.einsum("jkq,kq->jq", vals, dw[:, q:]),
                      out=grad[1])
        if not all_finite:
            grad[:, ~finite] = np.nan
        return out, grad


def interpolate(amap, points):
    """Cubic interpolation of an activation map at query points.

    points: (q, d) array (or (d,) for a single point). Returns values (q,)
    (or a scalar). The lattice needs at least 4 sites per axis; queries may
    be anywhere, with stencil values outside the lattice read as 0. Points
    with a NaN or infinite coordinate give NaN.
    """
    stencil = _Stencil(amap)
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    # An index coordinate that overflows gives NaN, as in `Warp.__call__`.
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.ascontiguousarray(amap.lattice.to_index_coords(pts).T)
    out = stencil.sample(u)
    return float(out[0]) if single else out


class Warp(_Stencil):
    """One map sampled at T(S) for many affine transforms T and fixed sites S.

    `Warp(amap, sites)(h)`, h a homogeneous matrix, equals `interpolate(amap,
    affine_apply(h, sites))` bit for bit: sites is (q, d), the result (q,).
    The padded grid, the stencil offsets and the clip bounds are built here,
    once, with the sites as a (d, q) array and the lattice's origin and
    spacing as columns.
    """

    def __init__(self, amap, sites):
        super().__init__(amap)
        sites = np.asarray(sites, dtype=float)
        if sites.ndim != 2 or sites.shape[1] != self.dim:
            raise ValueError(f"sites must be (q, {self.dim}), got shape {sites.shape}")
        # The homogeneous sites (s, 1) as rows, (d + 1, q); S is the top d rows.
        self._sites_h = np.ones((self.dim + 1, sites.shape[0]))
        self._sites_h[:-1] = sites.T
        self._sites = self._sites_h[:-1]
        self._origin = amap.lattice.origin[:, None]
        self._spacing = amap.lattice.spacing[:, None]

    def _coords(self, a, b):
        # A T(S) that overflows gives NaN rows, as a non-finite query does.
        with np.errstate(over="ignore", invalid="ignore"):
            return (a @ self._sites + b[:, None] - self._origin) / self._spacing

    def __call__(self, h):
        return self.sample(self._coords(h[:-1, :-1], h[:-1, -1]))

    def value_and_jacobian(self, top):
        """Values at H(S) and their Jacobian in the entries of H's top d rows.

        top: H[:d], (d, d + 1), which need not be invertible. Returns the
        values (q,), the bits of `self(h)` for the matrix with these rows,
        and the (q, d (d + 1)) Jacobian, columns in the row-major order of
        `top`: dx/dH_jk = g_j(s) s~_k / spacing_j, with g the kernel's
        derivative along index axis j at H(s) and s~ = (s, 1). One kernel
        pass gives both.
        """
        vals, grad = self.sample(self._coords(top[:, :-1], top[:, -1]), deriv=True)
        grad /= self._spacing
        jac = grad[:, None, :] * self._sites_h                # (d, d + 1, q)
        return vals, jac.reshape(-1, vals.size).T
