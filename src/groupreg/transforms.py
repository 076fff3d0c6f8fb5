"""Affine transform algebra on homogeneous matrices.

A d-dimensional affine map s -> A s + b is held as its (d+1)x(d+1)
homogeneous matrix [[A, b], [0, 1]], and n maps as an (n, d+1, d+1) stack,
plain float arrays that the functions here take and return.
`AffineTransform` is the validated value type at the boundary; it is
array-like as its matrix, so the functions take it too. Lie-algebra
coordinates are the top d rows of the matrix logarithm of the
homogeneous matrix, flattened row-major: length d(d+1), i.e. 6 entries in 2D
and 2 in 1D.

All operations are pure functions and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, NoRealLogarithm, SingularTransform

DET_EPS = 1e-12
# Tolerance on the homogeneous last row, as np.allclose(atol=1e-12) applies it.
_ROW_ATOL = 1e-12
_ROW_RTOL = 1e-5
# Karcher mean: stop when the mean log-step norm drops below KARCHER_TOL.
KARCHER_TOL = 1e-10
KARCHER_MAX_ITER = 100


def _check_invertible(h):
    """SingularTransform unless the homogeneous matrix h is finite and |det A| > DET_EPS.

    The checks run on Python floats: numpy's small-array calls cost more
    than the arithmetic, and `lie_exp` runs them on every proposal.
    """
    entries = h.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise SingularTransform("homogeneous matrix has a non-finite entry")
    det = entries[0] if len(h) == 2 else entries[0] * entries[4] - entries[1] * entries[3]
    if abs(det) <= DET_EPS:
        raise SingularTransform(f"|det A| = {abs(det):.3e} <= {DET_EPS}")


@dataclass(frozen=True, eq=False)
class AffineTransform:
    """Invertible affine map; `matrix` is the homogeneous-matrix view."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        h = np.array(self.matrix, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] not in (2, 3):
            raise ValueError(f"homogeneous matrix must be 2x2 or 3x3, got {h.shape}")
        _check_invertible(h)
        *zeros, one = h[-1].tolist()
        # np.allclose(last row, (0,...,0,1), atol=_ROW_ATOL) with its default rtol
        if (any(abs(z) > _ROW_ATOL for z in zeros)
                or abs(one - 1.0) > _ROW_ATOL + _ROW_RTOL):
            raise ValueError("last row of a homogeneous affine matrix must be (0,...,0,1)")
        h[-1] = 0.0
        h[-1, -1] = 1.0
        h.setflags(write=False)
        object.__setattr__(self, "matrix", h)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)

    @classmethod
    def from_parts(cls, A, b):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        d = A.shape[0]
        h = np.eye(d + 1)
        h[:d, :d] = A
        h[:d, d] = b
        return cls(h)

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim + 1))

    @classmethod
    def translation(cls, b):
        b = np.atleast_1d(np.asarray(b, dtype=float))
        return cls.from_parts(np.eye(b.size), b)

    @classmethod
    def rotation(cls, theta):
        """2D rotation about the origin by `theta` radians."""
        c, s = np.cos(theta), np.sin(theta)
        return cls.from_parts(np.array([[c, -s], [s, c]]), np.zeros(2))


def apply_stack(h, points):
    """T_i(s) = A_i s + b_i of every point s of a (q, d) stack, for each
    homogeneous matrix H_i of an (n, d + 1, d + 1) stack: (n, q, d).

    An image that overflows comes back non-finite, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return points @ h[:, :-1, :-1].transpose(0, 2, 1) + h[:, None, :-1, -1]


def affine_apply(h, points):
    """Apply T(s) = A s + b, H its homogeneous matrix, to one point (d,) or a
    stack (n, d), as `apply_stack`."""
    h = np.asarray(h, dtype=float)
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != len(h) - 1:
        raise ValueError(f"points have dim {pts.shape[1]}, transform has dim {len(h) - 1}")
    out = apply_stack(h[None], pts)[0]
    return out[0] if single else out


def affine_compose(h1, h2):
    """Composition s -> T1(T2(s)); homogeneous matrices, or stacks of them, multiply."""
    h1, h2 = np.asarray(h1, dtype=float), np.asarray(h2, dtype=float)
    if h1.shape[-1] != h2.shape[-1]:
        raise ValueError("cannot compose transforms of different dimension")
    return h1 @ h2


def affine_inverse(h):
    """The inverse of a homogeneous matrix, in closed form."""
    h = np.asarray(h, dtype=float)
    if len(h) == 2:
        a, b = h[0].tolist()
        a_inv = 1.0 / a
        return np.array([[a_inv, -(a_inv * b)], [0.0, 1.0]])
    a00, a01, b0, a10, a11, b1 = h[:2].ravel().tolist()
    det = a00 * a11 - a01 * a10
    i00, i01, i10, i11 = a11 / det, -a01 / det, -a10 / det, a00 / det
    return np.array([[i00, i01, -(i00 * b0 + i01 * b1)],
                     [i10, i11, -(i10 * b0 + i11 * b1)],
                     [0.0, 0.0, 1.0]])


# Closed-form 2x2 spectral calculus. For a real 2x2 matrix with eigenvalues
# mu1, mu2 and any analytic f, f(A) = f(mu2) I + f[mu1, mu2] (A - mu2 I) with
# the divided difference f[.,.]; complex pairs a +/- bi use A = aI + bJ with
# J^2 = -I. scipy's general logm/expm cost milliseconds per 3x3 call, which
# the sampler cannot afford, and numpy's per-call overhead on 2x2 arrays is
# most of the cost of these few flops, so the kernels work on Python floats:
# a matrix [[a, b], [c, d]] is the tuple (a, b, c, d). math.exp and
# math.expm1 raise OverflowError where numpy would return inf; lie_exp turns
# that into SingularTransform.

def _exprel(x):
    """(e^x - 1)/x, stable as x -> 0."""
    return math.expm1(x) / x if x else 1.0


def _matmul2(p, q):
    return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])


def _logm2(a, b, c, d):
    """Principal log of a real 2x2 matrix inside `has_real_log`'s domain."""
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det
    if disc < 0.0:
        re = 0.5 * tr
        im = 0.5 * math.sqrt(-disc)
        theta = math.atan2(im, re)
        lr = 0.5 * math.log(re * re + im * im)
        # lr I + theta J with J = (A - re I) / im
        return (lr + theta * ((a - re) / im), theta * (b / im),
                theta * (c / im), lr + theta * ((d - re) / im))
    root = math.sqrt(disc)
    lam2 = 0.5 * (tr - root)
    lam1 = 0.5 * (tr + root)
    gap = lam1 - lam2
    # f[lam1, lam2] = log(lam1/lam2)/(lam1-lam2), stable as gap -> 0
    slope = 1.0 / lam2 if gap == 0.0 else math.log1p(gap / lam2) / gap
    log2 = math.log(lam2)
    return (log2 + slope * (a - lam2), slope * b, slope * c, log2 + slope * (d - lam2))


def _expm2(a, b, c, d):
    """Exponential of a real 2x2 matrix."""
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det
    if disc < 0.0:
        re = 0.5 * tr
        im = 0.5 * math.sqrt(-disc)
        e, cos, sin = math.exp(re), math.cos(im), math.sin(im)
        # e^re (cos I + sin J) with J = (L - re I) / im
        return (e * (cos + sin * ((a - re) / im)), e * (sin * (b / im)),
                e * (sin * (c / im)), e * (cos + sin * ((d - re) / im)))
    root = math.sqrt(disc)
    mu2 = 0.5 * (tr - root)
    mu1 = 0.5 * (tr + root)
    e2 = math.exp(mu2)
    # f[mu1, mu2] = e^{mu2} (e^gap - 1)/gap, stable via exprel
    slope = e2 * _exprel(mu1 - mu2)
    return (e2 + slope * (a - mu2), slope * b, slope * c, e2 + slope * (d - mu2))


def _phi1_2(a, b, c, d):
    """phi1(L) = (e^L - I) L^{-1} = sum L^k/(k+1)! for a real 2x2 matrix."""
    norm = math.hypot(a, b, c, d)
    if not norm < math.inf:     # the halving loop below would never end
        raise OverflowError(f"phi1 of a matrix with norm {norm}")
    squarings = 0
    while norm > 0.8:
        a, b, c, d = 0.5 * a, 0.5 * b, 0.5 * c, 0.5 * d
        norm *= 0.5
        squarings += 1
    # acc = sum_{k<=16} M^k/(k+1)!, one term at a time
    t00, t01, t10, t11 = 1.0, 0.0, 0.0, 1.0
    s00, s01, s10, s11 = 1.0, 0.0, 0.0, 1.0
    for k in range(2, 18):
        t00, t01, t10, t11 = ((t00 * a + t01 * c) / k, (t00 * b + t01 * d) / k,
                              (t10 * a + t11 * c) / k, (t10 * b + t11 * d) / k)
        s00 += t00
        s01 += t01
        s10 += t10
        s11 += t11
    work = (a, b, c, d)
    acc = (s00, s01, s10, s11)
    # phi1(2M) = (e^M + I) phi1(M) / 2
    for _ in range(squarings):
        e = _expm2(*work)
        acc = _matmul2((0.5 * (e[0] + 1.0), 0.5 * e[1], 0.5 * e[2], 0.5 * (e[3] + 1.0)), acc)
        work = tuple(2.0 * x for x in work)
    return acc


def has_real_log(h):
    """Whether the homogeneous matrix h has a real principal logarithm, the
    domain of `lie_log`: in 1D a > 0; in 2D the eigenvalues of A are a
    complex pair or the smaller one is > 0. NaN entries count as inside."""
    top = np.asarray(h, dtype=float)[:-1, :-1].tolist()
    if len(top) == 1:
        return not top[0][0] <= 0.0
    (a, b), (c, d) = top
    tr = a + d
    disc = tr * tr - 4.0 * (a * d - b * c)
    return not (disc >= 0.0 and 0.5 * (tr - math.sqrt(disc)) <= 0.0)


def lie_log(h):
    """Principal matrix logarithm of the homogeneous matrix h, flattened.

    NoRealLogarithm outside `has_real_log`: no real principal logarithm
    exists there (the sampler rejects such proposals).
    """
    h = np.asarray(h, dtype=float)
    if not has_real_log(h):
        raise NoRealLogarithm("an eigenvalue of the linear part is on the closed "
                              "negative real axis")
    if len(h) == 2:
        a, b = h[0].tolist()
        ell = math.log(a)
        # b = u * (e^l - 1)/l  =>  u = b / exprel(l)
        return np.array([ell, b / _exprel(ell)])
    a00, a01, b0, a10, a11, b1 = h[:2].ravel().tolist()
    ell = _logm2(a00, a01, a10, a11)
    # u solves phi1(ell) u = b
    p00, p01, p10, p11 = _phi1_2(*ell)
    det = p00 * p11 - p01 * p10
    u0 = (p11 * b0 - p01 * b1) / det
    u1 = (p00 * b1 - p10 * b0) / det
    return np.array([ell[0], ell[1], u0, ell[2], ell[3], u1])


def lie_exp(delta):
    """Matrix exponential of the reshaped generator: a homogeneous matrix.

    SingularTransform when the exponential overflows, is not finite or has
    |det A| <= DET_EPS, as `AffineTransform` would raise.
    """
    entries = np.asarray(delta, dtype=float).ravel().tolist()
    if len(entries) not in (2, 6):
        raise ValueError(f"lie vector must have length 2 or 6, got {len(entries)}")
    try:
        if len(entries) == 2:
            ell, u = entries
            h = [[math.exp(ell), u * _exprel(ell)], [0.0, 1.0]]
        else:
            l00, l01, u0, l10, l11, u1 = entries
            e = _expm2(l00, l01, l10, l11)
            p = _phi1_2(l00, l01, l10, l11)
            h = [[e[0], e[1], p[0] * u0 + p[1] * u1],
                 [e[2], e[3], p[2] * u0 + p[3] * u1],
                 [0.0, 0.0, 1.0]]
    except (OverflowError, ValueError) as exc:
        raise SingularTransform(f"lie_exp of {entries} is not finite: {exc}") from None
    h = np.array(h)
    _check_invertible(h)
    return h


def composition_identity_gap(h1, h2):
    """Frobenius norm of H1 H2 - I for each pair of two (n, d + 1, d + 1)
    stacks of homogeneous matrices: (n,), zero where H2 = H1^-1."""
    g = (h1 @ h2 - np.eye(h1.shape[-1])).reshape(len(h1), 1, h1.shape[-1] ** 2)
    # One (1, m) @ (m, 1) product per pair sums as np.linalg.norm does.
    return np.sqrt(g @ g.transpose(0, 2, 1))[:, 0, 0]


def karcher_mean(h):
    """Intrinsic (Karcher/Frechet) mean of a stack of homogeneous matrices,
    via the iterative log-domain update.

    Repeats M <- M exp(mean_i log(M^{-1} H_i)) until the mean log-step norm
    drops below KARCHER_TOL. NoRealLogarithm from any M^{-1} H_i propagates.
    """
    h = np.asarray(h, dtype=float)
    if not len(h):
        raise ValueError("karcher_mean needs at least one transform")
    mean = np.eye(h.shape[-1])
    for _ in range(KARCHER_MAX_ITER):
        logs = np.stack([lie_log(g) for g in affine_inverse(mean) @ h])
        step = logs.mean(axis=0)
        if math.sqrt(step @ step) < KARCHER_TOL:   # np.linalg.norm(step), bit for bit
            return mean
        mean = mean @ lie_exp(step)
    raise NoConvergence(f"karcher_mean did not converge in {KARCHER_MAX_ITER} iterations")


def standardize(h):
    """(H_i M^-1 for each H_i of the stack h, M), M the Karcher mean of h.

    The result has Karcher mean identity, and relative geometry is preserved
    exactly: Ti' (Tj')^{-1} = Ti Tj^{-1}.
    """
    mean = karcher_mean(h)
    return np.asarray(h, dtype=float) @ affine_inverse(mean), mean
