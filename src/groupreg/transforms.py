"""Affine transform algebra on homogeneous matrices.

A d-dimensional affine map s -> A s + b is stored canonically as its
(d+1)x(d+1) homogeneous matrix [[A, b], [0, 1]]; (A, b) is a derived view.
Lie-algebra coordinates are the top d rows of the matrix logarithm of the
homogeneous matrix, flattened row-major: length d(d+1), i.e. 6 entries in 2D
and 2 in 1D.

All operations are pure functions on value types and thread-safe.
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


@dataclass(frozen=True, eq=False)
class AffineTransform:
    """Invertible affine map; `matrix` is the homogeneous-matrix view."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        h = np.array(self.matrix, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] not in (2, 3):
            raise ValueError(f"homogeneous matrix must be 2x2 or 3x3, got {h.shape}")
        # The checks run on Python floats: numpy's small-array calls cost more
        # than the arithmetic, and transforms are built per objective call.
        entries = h.ravel().tolist()
        if not all(map(math.isfinite, entries)):
            raise SingularTransform("homogeneous matrix has a non-finite entry")
        d = h.shape[0] - 1
        *zeros, one = entries[-(d + 1):]
        # np.allclose(last row, (0,...,0,1), atol=_ROW_ATOL) with its default rtol
        if (any(abs(z) > _ROW_ATOL for z in zeros)
                or abs(one - 1.0) > _ROW_ATOL + _ROW_RTOL):
            raise ValueError("last row of a homogeneous affine matrix must be (0,...,0,1)")
        det = entries[0] if d == 1 else entries[0] * entries[4] - entries[1] * entries[3]
        if abs(det) <= DET_EPS:
            raise SingularTransform(f"|det A| = {abs(det):.3e} <= {DET_EPS}")
        h[-1] = 0.0
        h[-1, -1] = 1.0
        h.setflags(write=False)
        object.__setattr__(self, "matrix", h)

    @property
    def dim(self):
        return self.matrix.shape[0] - 1

    @property
    def A(self):
        return self.matrix[:-1, :-1]

    @property
    def b(self):
        return self.matrix[:-1, -1]

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


def affine_apply(transform, points):
    """Apply T(s) = A s + b to one point (d,) or a stack (n, d).

    An image that overflows comes back non-finite, without a warning.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != transform.dim:
        raise ValueError(f"points have dim {pts.shape[1]}, transform has dim {transform.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = pts @ transform.A.T + transform.b
    return out[0] if single else out


def affine_compose(t1, t2):
    """Composition s -> t1(t2(s)); homogeneous matrices multiply."""
    if t1.dim != t2.dim:
        raise ValueError("cannot compose transforms of different dimension")
    return AffineTransform(t1.matrix @ t2.matrix)


def affine_inverse(transform):
    if transform.dim == 1:
        a, b = transform.matrix[0].tolist()
        a_inv = 1.0 / a
        return AffineTransform(np.array([[a_inv, -(a_inv * b)], [0.0, 1.0]]))
    a00, a01, b0, a10, a11, b1 = transform.matrix[:2].ravel().tolist()
    det = a00 * a11 - a01 * a10
    i00, i01, i10, i11 = a11 / det, -a01 / det, -a10 / det, a00 / det
    return AffineTransform(np.array([[i00, i01, -(i00 * b0 + i01 * b1)],
                                     [i10, i11, -(i10 * b0 + i11 * b1)],
                                     [0.0, 0.0, 1.0]]))


def _lie_entries(delta):
    """Lie coordinates as (dim, list of floats); ValueError on a bad length."""
    delta = np.asarray(delta, dtype=float).ravel()
    if delta.size not in (2, 6):
        raise ValueError(f"lie vector must have length 2 or 6, got {delta.size}")
    return (1 if delta.size == 2 else 2), delta.tolist()


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
    """Principal log of a real 2x2 matrix; NoRealLogarithm off the domain."""
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
    if lam2 <= 0.0:
        raise NoRealLogarithm("eigenvalue on the closed negative real axis")
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


def lie_log(transform):
    """Principal matrix logarithm of the homogeneous matrix, flattened.

    Requires that no eigenvalue lies on the closed negative real axis;
    otherwise no real principal logarithm exists and NoRealLogarithm is
    raised (such proposals are rejected by the sampler).
    """
    if transform.dim == 1:
        a, b = transform.matrix[0].tolist()
        if a <= 0:
            raise NoRealLogarithm(f"1D linear part {a} <= 0 has no real logarithm")
        ell = math.log(a)
        # b = u * (e^l - 1)/l  =>  u = b / exprel(l)
        return np.array([ell, b / _exprel(ell)])
    a00, a01, b0, a10, a11, b1 = transform.matrix[:2].ravel().tolist()
    ell = _logm2(a00, a01, a10, a11)
    # u solves phi1(ell) u = b
    p00, p01, p10, p11 = _phi1_2(*ell)
    det = p00 * p11 - p01 * p10
    u0 = (p11 * b0 - p01 * b1) / det
    u1 = (p00 * b1 - p10 * b0) / det
    return np.array([ell[0], ell[1], u0, ell[2], ell[3], u1])


def lie_exp(delta):
    """Matrix exponential of the reshaped generator.

    SingularTransform when the exponential overflows or is not finite.
    """
    d, entries = _lie_entries(delta)
    try:
        if d == 1:
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
    return AffineTransform(np.array(h))


def composition_identity_gap(t1, t2):
    """Frobenius norm of (H_{t1} H_{t2} - I): zero iff t2 = t1^{-1}."""
    h = t1.matrix @ t2.matrix
    return float(np.linalg.norm(h - np.eye(h.shape[0])))


def karcher_mean(transforms):
    """Intrinsic (Karcher/Frechet) mean via the iterative log-domain update.

    Repeats T_bar <- T_bar * exp(mean_i log(T_bar^{-1} T_i)) until the mean
    log-step norm drops below KARCHER_TOL. NoRealLogarithm from any
    T_bar^{-1} T_i propagates.
    """
    transforms = list(transforms)
    if not transforms:
        raise ValueError("karcher_mean needs at least one transform")
    mean = AffineTransform.identity(transforms[0].dim)
    for _ in range(KARCHER_MAX_ITER):
        mean_inv = affine_inverse(mean)
        logs = np.stack([lie_log(affine_compose(mean_inv, t)) for t in transforms])
        step = logs.mean(axis=0)
        if np.linalg.norm(step) < KARCHER_TOL:
            return mean
        mean = affine_compose(mean, lie_exp(step))
    raise NoConvergence(f"karcher_mean did not converge in {KARCHER_MAX_ITER} iterations")


def standardize(transforms):
    """Right-translate all transforms by the inverse Karcher mean.

    The result has Karcher mean identity, and relative geometry is preserved
    exactly: Ti' (Tj')^{-1} = Ti Tj^{-1}.
    """
    mean_inv = affine_inverse(karcher_mean(transforms))
    return [affine_compose(t, mean_inv) for t in transforms]
