"""Catmull-Rom cubic interpolation of lattice maps at arbitrary locations.

Used for Y_i evaluated at reverse-transformed sites and for inverse warping.
2D interpolation is separable: the 1D kernel is applied per axis over a 4x4
stencil. Values outside the lattice are 0: activation maps decay to baseline
outside the region of interest.

One kernel, `Warp.sample`, serves 1D and 2D alike and takes index
coordinates axis-major, (d, q), so every step runs over the query points in
long contiguous rows. What depends only on the maps is built once per
`Warp`: each grid padded by `_PAD` zero sites per side, so every stencil
that touches the lattice lies inside the padded grid and needs no mask; the
padded grid's strides; the flat offsets of the 4^d stencil sites; and the
clip bounds. Index coordinates are clipped to [-3, n + 1] per axis before
the floor: a stencil based there lies wholly in the padding, and so does the
stencil of every clipped point, which therefore reads zeros as it would
unclipped; the clip also keeps the integer cast defined for any finite
query. Stencil values come from one `take` at the flat offsets, weights are
[1, t, t^2, t^3] @ `_M_CR`, and the stencil is contracted one axis at a
time, last axis first, by one loop for any d. The stencils' flat indices,
their values and the weight tables are written into buffers that each thread
keeps and reuses (`_SCRATCH`), so a kernel pass allocates only arrays of a
few doubles a point. On request the kernel also returns the derivative along
each index axis, from the same stencil values with the weights [0, 1, 2t,
3t^2] @ `_M_CR` on that axis; the Catmull-Rom interpolant is C^1, so this is
its exact gradient. A query point that is not finite gives NaN, and so does
one whose image or index coordinates overflow, without a warning.

`Warp(maps)` samples one map, or several on one lattice, at T(S) for many
affine T, S the lattice's own sites, which every caller samples at: the
reverse step's Y_i at T_i^r(S) (`sampler.ChainState.warps`), the set-up's X
at T_i(S) and its back-warps, the pull-backs at T_i^-1(S)
(`baseline.inverse_warp`), `model.gibbs_log_posterior` and the glyph
rotations of `synth`. It keeps S as a (d, V) array, and `warp(h)`, h the
matrix of T, computes the index coordinates (A S + b - origin) / spacing in
that layout, which gives the bits of `interpolate(amap, affine_apply(h,
S))`. `warp(h)` also takes an (n, d + 1, d + 1) stack of matrices, and a
single matrix is its n = 1 case. The stack is sampled in kernel passes of
`warp.chunk` matrices, as many as keep a pass within `_PASS_POINTS` query
points: 5 on a 28x28 lattice, 19 on a 201-site curve. One private method,
`Warp._pass`, forms a pass's index coordinates and map offsets and samples
them. Each point's arithmetic does not depend on the others in its pass, so
a stacked call gives the bits of one call per matrix. Several maps' padded
grids are stacked, (maps, padded shape), and a point's flat stencil index is
offset by its map's place in the stack, so the kernel and its arithmetic are
those of one map. Row k of a stack is sampled on map `which[k]`, or on map k
when no `which` is given, and has the bits of a one-map `Warp` of that map.

`warp.value_and_jacobian(tops)` gives, for an (m, d, d + 1) stack of the top
d rows of homogeneous matrices H, the values on the first map with their
Jacobian in H's entries, from the same kernel passes: row k has the bits,
and the memory layout, of the call on tops[k:k + 1]. The set-up evaluates
one template at every live subject's Levenberg-Marquardt point in one call
(`sampler.fit_affine`), so the per-map and per-call work is paid once, not
per T.

`interpolate(amap, points)` samples a map once at (q, d) points through its
own `to_index_coords` path and the kernel of `Warp(amap)`; it is the tests'
oracle for `Warp`.
"""

from __future__ import annotations

import threading

import numpy as np

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

# Query points per kernel pass. A pass writes its stencils and weight tables
# into its thread's buffers (`_SCRATCH`), and every other array it makes
# holds at most 4 doubles a point: 128 000 bytes on a lattice of up to 4000
# sites, under glibc's default 128 KiB mmap threshold, so such a pass maps
# and faults in no fresh pages.
# Passes whose fresh arrays were larger did: the glyph's coarse-grid search
# (N = 3, 525 candidates), each pass allocating its own arrays, took 38-51
# ms at 2 matrices a pass and 54-114 ms at 4 to 10, each search faulting in
# 20 000-30 000 pages (fresh processes, 2-core x86-64 machine, glibc's
# malloc defaults). With the buffers it took 30-34 ms at 5 matrices a pass
# and 37-42 ms at 2 (in one process, a new `Warp` per search).
_PASS_POINTS = 4000


class _Scratch(threading.local):
    """One thread's kernel buffers, grown to the largest pass met, and their
    views for each (d, points) met (`Warp._buffers`)."""

    def __init__(self):
        self.floats = np.empty(0)
        self.ints = np.empty(0, dtype=np.intp)
        self.views = {}


_SCRATCH = _Scratch()


class Warp:
    """Maps on one lattice sampled by the cubic kernel at T(S) for many affine
    transforms T, S the lattice's sites.

    `Warp(amap)(h)`, h a homogeneous matrix, equals `interpolate(amap,
    affine_apply(h, S))` bit for bit, S = amap.lattice.locations(): the
    result is (V,). For an (n, d + 1, d + 1) stack h the result is (n, V),
    row k the bits of `self(h[k])`. `Warp(maps)`, maps a list on one
    lattice, samples row k of a stack on maps[which[k]], or on maps[k] when
    `which` is not given, with the bits of `Warp(maps[which[k]])(h[k])`. The
    padded grids, the stencil offsets, the clip bounds and S, as a (d, V)
    array with the lattice's origin and spacing as columns, are built here,
    once.
    """

    def __init__(self, maps):
        maps = list(maps) if isinstance(maps, (list, tuple)) else [maps]
        lat = maps[0].lattice
        if any(n < MIN_AXIS_SITES for n in lat.shape):
            raise ValueError(f"cubic interpolation needs >= {MIN_AXIS_SITES} sites per axis")
        if not all(amap.lattice.matches(lat) for amap in maps[1:]):
            raise ValueError("the maps of one Warp must share one lattice")
        self.dim = lat.dim
        self.n_maps = len(maps)
        self._upper = np.asarray(lat.shape, dtype=float)[:, None] + 1.0
        # Each grid padded by _PAD zero sites per side, by slice assignment
        # into zeros: np.pad costs about ten times as much per call.
        self._padded = np.zeros((len(maps),) + tuple(n + 2 * _PAD for n in lat.shape))
        self._padded[(slice(None),) + (slice(_PAD, -_PAD),) * lat.dim] = np.stack(
            [amap.grid for amap in maps])
        # Flat index of a stencil's first site (base - 1 per axis) in map 0 is
        # strides @ base + _first, in map j that plus j * _map_size, and the
        # 4^d stencil sites lie at `_offsets` from it, axis 0 outermost.
        self._strides = np.asarray(self._padded.strides[1:]) // self._padded.itemsize
        self._map_size = self._padded[0].size
        self._first = (_PAD - 1) * self._strides.sum()
        offsets = np.zeros(1, dtype=int)
        for stride in self._strides:
            offsets = (offsets[:, None] + np.arange(4) * stride).ravel()
        self._offsets = offsets[:, None]
        # The homogeneous sites (s, 1) as rows, (d + 1, V); S is the top d rows.
        self._sites_h = np.ones((lat.dim + 1, lat.n_sites))
        self._sites_h[:-1] = lat.locations().T
        self._sites = self._sites_h[:-1]
        self._origin = lat.origin[:, None]
        self._spacing = lat.spacing[:, None]
        # Matrices per kernel pass, chunk V points at most _PASS_POINTS.
        self.chunk = max(1, _PASS_POINTS // lat.n_sites)

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

        u = np.minimum(np.maximum(u, -3.0), self._upper)
        base = np.floor(u)
        first = (self._strides @ base + self._first).astype(np.intp)
        if offset is not None:
            first += offset
        idx, vals, (powers, w, dw) = self._buffers(q)
        np.add(self._offsets, first, out=idx)
        # mode="clip" writes straight into `vals`; every index is in range.
        self._padded.take(idx, out=vals, mode="clip")
        vals = vals.reshape((4,) * self.dim + (q,))

        t = (u - base).ravel()
        powers[0] = 1.0
        powers[1] = t
        np.multiply(t, t, out=powers[2])
        np.multiply(powers[2], t, out=powers[3])
        np.matmul(_M_CR.T, powers, out=w)                   # (4, d q)
        if deriv:
            powers[0] = 0.0
            powers[1] = 1.0
            np.multiply(t, 2.0, out=powers[2])
            np.multiply(3.0 * t, t, out=powers[3])
            np.matmul(_M_CR.T, powers, out=dw)              # (4, d q)
        # Contract the stencil's axes last to first. The derivative along an
        # axis starts from the values' partial contraction before that axis;
        # `partial` holds those begun so far, and the contractions along axis
        # 0 finish them into their rows of `grad`.
        out, partial = vals, {}
        grad = np.empty((self.dim, q)) if deriv else None
        for axis in reversed(range(self.dim)):
            cols = slice(axis * q, (axis + 1) * q)
            if deriv:
                for j in partial:
                    partial[j] = np.einsum("...kq,kq->...q", partial[j], w[:, cols],
                                           out=grad[j] if axis == 0 else None)
                partial[axis] = np.einsum("...kq,kq->...q", out, dw[:, cols],
                                          out=grad[axis] if axis == 0 else None)
            out = np.einsum("...kq,kq->...q", out, w[:, cols])
        if not all_finite:
            out[~finite] = np.nan
        if not deriv:
            return out
        if not all_finite:
            grad[:, ~finite] = np.nan
        return out, grad

    def _buffers(self, q):
        """Views for q points of the thread's kernel buffers (`_SCRATCH`):
        the stencils' flat indices and values, (4^d, q) each, and the weight
        tables, (3, 4, d q)."""
        views = _SCRATCH.views.get((self.dim, q))
        if views is None:
            k, n = 4 ** self.dim, (4 ** self.dim + 12 * self.dim) * q
            if _SCRATCH.floats.size < n or _SCRATCH.ints.size < k * q:
                _SCRATCH.floats = np.empty(max(n, _SCRATCH.floats.size))
                _SCRATCH.ints = np.empty(max(k * q, _SCRATCH.ints.size), dtype=np.intp)
                _SCRATCH.views.clear()
            views = _SCRATCH.views[self.dim, q] = (
                _SCRATCH.ints[:k * q].reshape(k, q), _SCRATCH.floats[:k * q].reshape(k, q),
                _SCRATCH.floats[k * q:n].reshape(3, 4, self.dim * q))
        return views

    def _pass(self, tops, which=None, deriv=False):
        """`sample` of one kernel pass: an (n, d, d + 1) stack of top rows
        [A | b] at [A | b] (S, 1), row k on map which[k] if `which` is given,
        else on map 0; matrix k's points are at columns k V .. k V + V - 1. A
        T(S) that overflows gives NaN columns, as a non-finite query does."""
        with np.errstate(over="ignore", invalid="ignore"):
            u = tops[:, :, :-1] @ self._sites
            u += tops[:, :, -1:]
            u -= self._origin
            u /= self._spacing
        u = np.ascontiguousarray(u.swapaxes(0, 1)).reshape(self.dim, -1)
        offset = None if which is None else np.repeat(which * self._map_size, self._sites.shape[1])
        return self.sample(u, deriv, offset)

    def __call__(self, h, which=None):
        single = h.ndim == 2
        stack = h[None] if single else h
        if which is None and self.n_maps > 1:
            if len(stack) != self.n_maps:
                raise ValueError(f"{len(stack)} matrices for {self.n_maps} maps need `which`")
            which = np.arange(self.n_maps)
        out = np.empty((len(stack), self._sites.shape[1]))
        for lo in range(0, len(stack), self.chunk):
            rows = slice(lo, lo + self.chunk)
            vals = self._pass(stack[rows, :-1], None if which is None else which[rows])
            out[rows] = vals.reshape(-1, out.shape[1])
        return out[0] if single else out

    def value_and_jacobian(self, tops):
        """Values at H(S) on the first map and their Jacobian in the entries of
        H's top d rows, for an (m, d, d + 1) stack `tops` of those rows,
        which need not be invertible.

        Returns the values (m, V), row k the bits of `self(h)` for the matrix
        with rows tops[k], and the (m, V, d (d + 1)) Jacobian, columns in the
        row-major order of tops[k]: dx/dH_jk = g_j(s) s~_k / spacing_j, with g
        the kernel's derivative along index axis j at H(s) and s~ = (s, 1).
        Row k has the bits and the memory layout of the call on tops[k:k + 1].
        One kernel pass gives both.
        """
        d, v = self.dim, self._sites.shape[1]
        vals = np.empty((len(tops), v))
        jac = np.empty((len(tops), d, d + 1, v))
        for lo in range(0, len(tops), self.chunk):
            rows = slice(lo, lo + self.chunk)
            part_vals, grad = self._pass(tops[rows], deriv=True)
            vals[rows] = part_vals.reshape(-1, v)
            grad /= self._spacing
            np.multiply(grad.reshape(d, -1, 1, v).swapaxes(0, 1), self._sites_h, out=jac[rows])
        # Row k is (d (d + 1), V) C-ordered, so its transpose is that of a one-row call.
        return vals, jac.reshape(len(tops), -1, v).swapaxes(1, 2)


def interpolate(amap, points):
    """Cubic interpolation of an activation map at query points.

    points: (q, d) array (or (d,) for a single point). Returns values (q,)
    (or a scalar). The lattice needs at least 4 sites per axis; queries may
    be anywhere, with stencil values outside the lattice read as 0. Points
    with a NaN or infinite coordinate give NaN.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    # An index coordinate that overflows gives NaN, as in `Warp.__call__`.
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.ascontiguousarray(amap.lattice.to_index_coords(pts).T)
    out = Warp(amap).sample(u)
    return float(out[0]) if single else out
