"""Catmull-Rom cubic interpolation of lattice maps at arbitrary locations.

Used for Y_i evaluated at reverse-transformed sites and for inverse warping.
2D interpolation is separable: the 1D kernel is applied per axis over a 4x4
stencil. Values outside the lattice are 0: activation maps decay to baseline
outside the region of interest.

One kernel, `_Stencil.sample`, serves 1D and 2D alike and takes index
coordinates axis-major, (d, q), so every step runs over the query points in
long contiguous rows. What depends only on the maps is built once per
`_Stencil`: each grid padded by `_PAD` zero sites per side, so every stencil
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
- `Warp(maps, sites)` samples maps at T(S) for many affine T and fixed
  sites S. It also keeps S as a (d, q) array, and `warp(h)`, h the matrix
  of T, computes the index coordinates (A S + b - origin) / spacing in that
  layout, which gives the bits of `interpolate(amap, affine_apply(h, sites))`.
  `warp(h)` also takes an (n, d + 1, d + 1) stack of matrices, and a single
  matrix is its n = 1 case. The stack is sampled `warp.chunk` matrices per
  kernel pass, as many as keep a pass's (4^d, points) stencil values within
  `spatial._BLOCK_BYTES`: 2 on a 28x28 lattice, 40 on a 201-site curve.
  Each point's arithmetic does not depend on the others in its pass, so a
  stacked call gives the bits of one call per matrix.
  A `Warp` holds one map or several on one lattice: the padded grids are
  stacked, (maps, padded shape), and a point's flat stencil index is offset
  by its map's place in the stack, so the kernel and its arithmetic are
  those of one map. Row k of a stack is sampled on map `which[k]`, or on
  map k when no `which` is given, and has the bits of a one-map `Warp` of
  that map. The chain keeps one `Warp` of all subject maps
  (`sampler.ChainState.warps`), so the reverse-transform step samples every
  live proposal in one call; the set-up's back-warps,
  `baseline.inverse_warp` and `model.gibbs_log_posterior` call it the same
  way, one matrix per map.
  `warp.value_and_jacobian(top)` gives the values of a one-map `Warp` for
  the top d rows of a homogeneous matrix H, with their Jacobian in H's
  entries, from the same kernel pass. It takes an (m, d, d + 1) stack of
  top rows as `warp(h)` takes a stack of matrices, `warp.chunk` per pass,
  and a single top is its m = 1 case: row k has the bits, and the memory
  layout, of the call on top[k] alone. The set-up evaluates one template at
  the coarse grid of candidate transforms for every subject at once
  (`sampler.best_candidates`), and, in each round of the subjects'
  lock-step Levenberg-Marquardt fits, at every live subject's point in one
  call (`sampler.fit_affine`), so the per-map and per-call work is paid
  once, not per T.
"""

from __future__ import annotations

import numpy as np

from . import spatial
from .grids import MIN_AXIS_SITES

# Catmull-Rom basis: the weights of p_{-1}, p_0, p_1, p_2 at fractional
# offset t from p_0 are [1, t, t^2, t^3] @ _M_CR.
_M_CR = 0.5 * np.array([[0.0, 2.0, 0.0, 0.0],
                        [-1.0, 0.0, 1.0, 0.0],
                        [2.0, -5.0, 4.0, -1.0],
                        [-1.0, 3.0, -3.0, 1.0]])

# A stencil based at n + 1 spans sites n .. n + 3, so 4 zero sites per side
# hold every stencil the clip allows.
_PAD = 4


def _padded(grids):
    """The (n, ...) stack of grids, each padded by _PAD zero sites per side."""
    # Slice assignment into zeros: np.pad costs about ten times as much per call.
    out = np.zeros((len(grids),) + tuple(n + 2 * _PAD for n in grids.shape[1:]))
    out[(slice(None),) + (slice(_PAD, -_PAD),) * (grids.ndim - 1)] = grids
    return out


class _Stencil:
    """The cubic kernel over one or more maps on one lattice, with everything
    that depends only on the maps built."""

    def __init__(self, maps):
        lat = maps[0].lattice
        if any(n < MIN_AXIS_SITES for n in lat.shape):
            raise ValueError(f"cubic interpolation needs >= {MIN_AXIS_SITES} sites per axis")
        if not all(amap.lattice.matches(lat) for amap in maps[1:]):
            raise ValueError("the maps of one stencil must share one lattice")
        self.dim = lat.dim
        self.n_maps = len(maps)
        self._upper = np.asarray(lat.shape, dtype=float)[:, None] + 1.0
        self._padded = _padded(np.stack([amap.grid for amap in maps]))
        # Flat index of a stencil's first site (base - 1 per axis) in map 0 is
        # strides @ base + _first, in map j that plus j * _map_size, and the
        # 4^d stencil sites lie at `_offsets` from it.
        self._strides = np.asarray(self._padded.strides[1:]) // self._padded.itemsize
        self._map_size = self._padded[0].size
        self._first = (_PAD - 1) * self._strides.sum()
        offsets = np.arange(4)
        if lat.dim == 2:
            offsets = (offsets[:, None] * self._strides[0] + offsets).ravel()
        self._offsets = offsets[:, None]

    def sample(self, u, deriv=False, offset=None):
        """Values at index coordinates u, (d, q) and C-contiguous; returns (q,).

        Point j is read from map 0, or with `offset`, a (q,) int array, from
        the map whose flat grid starts at offset[j]. With `deriv`, also the
        derivative along each index axis, (d, q), from the same stencil
        values with the weights [0, 1, 2t, 3t^2] @ `_M_CR`; the values keep
        their bits. Where the stencil reads only padding the derivative is 0,
        and where a query is not finite it is NaN.
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
        if offset is not None:
            first += offset
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
    stencil = _Stencil([amap])
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    # An index coordinate that overflows gives NaN, as in `Warp.__call__`.
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.ascontiguousarray(amap.lattice.to_index_coords(pts).T)
    out = stencil.sample(u)
    return float(out[0]) if single else out


class Warp(_Stencil):
    """Maps on one lattice sampled at T(S) for many affine transforms T and fixed sites S.

    `Warp(amap, sites)(h)`, h a homogeneous matrix, equals `interpolate(amap,
    affine_apply(h, sites))` bit for bit: sites is (q, d), the result (q,).
    For an (n, d + 1, d + 1) stack h the result is (n, q), row k the bits of
    `self(h[k])`, computed in kernel passes over `chunk` matrices each.
    `Warp(maps, sites)`, maps a list on one lattice, samples row k of a stack
    on maps[which[k]], or on maps[k] when `which` is not given, with the bits
    of `Warp(maps[which[k]], sites)(h[k])`. The padded grids, the stencil
    offsets and the clip bounds are built here, once, with the sites as a
    (d, q) array and the lattice's origin and spacing as columns.
    """

    def __init__(self, maps, sites):
        maps = list(maps) if isinstance(maps, (list, tuple)) else [maps]
        super().__init__(maps)
        lattice = maps[0].lattice
        sites = np.asarray(sites, dtype=float)
        if sites.ndim != 2 or sites.shape[1] != self.dim:
            raise ValueError(f"sites must be (q, {self.dim}), got shape {sites.shape}")
        # The homogeneous sites (s, 1) as rows, (d + 1, q); S is the top d rows.
        self._sites_h = np.ones((self.dim + 1, sites.shape[0]))
        self._sites_h[:-1] = sites.T
        self._sites = self._sites_h[:-1]
        self._origin = lattice.origin[:, None]
        self._spacing = lattice.spacing[:, None]
        # Matrices per kernel pass: a pass holds (4^d, chunk q) stencil values.
        self.chunk = max(1, spatial._BLOCK_BYTES // (8 * 4 ** self.dim * sites.shape[0]))

    def _pass_coords(self, tops):
        """Index coordinates of one kernel pass, (d, n q), for an (n, d, d + 1)
        stack of top rows [A | b]: matrix k's points are columns k q .. k q + q - 1.
        A T(S) that overflows gives NaN columns, as a non-finite query does."""
        with np.errstate(over="ignore", invalid="ignore"):
            u = (tops[:, :, :-1] @ self._sites + tops[:, :, -1:] - self._origin) / self._spacing
        return np.ascontiguousarray(u.swapaxes(0, 1)).reshape(self.dim, -1)

    def __call__(self, h, which=None):
        single = h.ndim == 2
        stack = h[None] if single else h
        q = self._sites.shape[1]
        if which is None and self.n_maps > 1:
            if len(stack) != self.n_maps:
                raise ValueError(f"{len(stack)} matrices for {self.n_maps} maps need `which`")
            which = np.arange(self.n_maps)
        out = np.empty((len(stack), q))
        for lo in range(0, len(stack), self.chunk):
            part = stack[lo:lo + self.chunk, :-1]
            offset = (None if which is None
                      else np.repeat(which[lo:lo + self.chunk] * self._map_size, q))
            out[lo:lo + len(part)] = self.sample(self._pass_coords(part),
                                                 offset=offset).reshape(len(part), -1)
        return out[0] if single else out

    def value_and_jacobian(self, top):
        """Values at H(S) and their Jacobian in the entries of H's top d rows,
        on the first map.

        top: H[:d], (d, d + 1), which need not be invertible, or an (m, d,
        d + 1) stack of them, sampled `chunk` matrices per kernel pass; a
        single top is the m = 1 case. Returns the values (q,), the bits of
        `self(h)` for the matrix with these rows, and the (q, d (d + 1))
        Jacobian, columns in the row-major order of `top`: dx/dH_jk = g_j(s)
        s~_k / spacing_j, with g the kernel's derivative along index axis j
        at H(s) and s~ = (s, 1). For a stack they are (m, q) and (m, q,
        d (d + 1)), row k the bits and the memory layout of the call on
        top[k] alone. One kernel pass gives both.
        """
        single = top.ndim == 2
        stack = top[None] if single else top
        d, q = self.dim, self._sites.shape[1]
        vals = np.empty((len(stack), q))
        jac = np.empty((len(stack), d, d + 1, q))
        for lo in range(0, len(stack), self.chunk):
            part = stack[lo:lo + self.chunk]
            n = len(part)
            v, grad = self.sample(self._pass_coords(part), deriv=True)
            vals[lo:lo + n] = v.reshape(n, q)
            grad /= self._spacing
            np.multiply(grad.reshape(d, n, 1, q).swapaxes(0, 1), self._sites_h,
                        out=jac[lo:lo + n])
        # Row k is (d (d + 1), q) C-ordered, so its transpose is that of a single call.
        jac = jac.reshape(len(stack), -1, q).swapaxes(1, 2)
        return (vals[0], jac[0]) if single else (vals, jac)
