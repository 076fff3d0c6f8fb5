"""Regular lattices and activation maps.

An activation map is a regular lattice of d-dimensional locations plus one
intensity value per site (a subject map or the latent template). Sites are
ordered row-major; that ordering is also the NNGP site ordering.

Map file format (CSV): a 3-line header (dims, spacing, origin) followed by the
row-major values, one grid row per line (a single column in 1D). Floats are
written with shortest-roundtrip repr, so read(write(m)) is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, ValidationError

MATCH_RTOL = 1e-5   # `Lattice.matches`: equal spacings and origins, relative to the spacing
MIN_AXIS_SITES = 4  # interp's cubic stencil width: fewer sites on an axis cannot be interpolated


def _as_vector(x, dim):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.size == 1 and dim > 1:
        v = np.full(dim, float(v[0]))
    if v.shape != (dim,):
        raise ValidationError(f"expected a length-{dim} vector, got shape {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class Lattice:
    """Regular grid: site (i_1,...,i_d) sits at origin + i * spacing."""

    shape: tuple
    spacing: np.ndarray
    origin: np.ndarray

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        object.__setattr__(self, "shape", shape)
        d = len(shape)
        if d not in (1, 2):
            raise ValidationError(f"lattice dimension must be 1 or 2, got {d}")
        if any(n < 1 for n in shape):
            raise ValidationError("lattice shape entries must be >= 1")
        spacing, origin = _as_vector(self.spacing, d), _as_vector(self.origin, d)
        if not np.all(np.isfinite(spacing) & (spacing > 0)):
            raise ValidationError("lattice spacing must be finite and > 0")
        if not np.all(np.isfinite(origin)):
            raise ValidationError("lattice origin must be finite")
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def dim(self):
        return len(self.shape)

    @property
    def n_sites(self):
        return int(np.prod(self.shape))

    def locations(self):
        """All site locations, row-major, as an (n_sites, dim) array."""
        axes = [self.origin[a] + self.spacing[a] * np.arange(n)
                for a, n in enumerate(self.shape)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)

    def bounds(self):
        """(lower, upper) corners of the bounding box."""
        upper = self.origin + self.spacing * (np.asarray(self.shape) - 1)
        return self.origin.copy(), upper

    def matches(self, other):
        """Same shape, and spacing and origin equal up to rounding, at any scale:
        each axis's spacings to a relative MATCH_RTOL, and its origins to within
        MATCH_RTOL of this lattice's spacing, with no absolute term."""
        tol = MATCH_RTOL * self.spacing
        return (self.shape == other.shape
                and bool(np.all(np.abs(self.spacing - other.spacing) <= tol))
                and bool(np.all(np.abs(self.origin - other.origin) <= tol)))

    def to_index_coords(self, points):
        """Map physical points to fractional index coordinates."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.origin) / self.spacing


def make_lattice_1d(start, stop, spacing):
    n = int(round((stop - start) / spacing)) + 1
    return Lattice(shape=(n,), spacing=np.array([spacing]), origin=np.array([start]))


@dataclass(frozen=True, eq=False)
class ActivationMap:
    """Intensity values on a lattice, stored flat in row-major site order."""

    lattice: Lattice
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.lattice.n_sites:
            raise ValidationError(
                f"value count {v.size} does not match lattice with "
                f"{self.lattice.n_sites} sites")
        object.__setattr__(self, "values", v)

    @property
    def grid(self):
        return self.values.reshape(self.lattice.shape)

    def with_values(self, values):
        return ActivationMap(self.lattice, values)


def common_lattice(maps):
    """The one lattice all maps share; DegenerateInput if there are none, they
    differ, or an axis has too few sites for cubic interpolation."""
    if not maps:
        raise DegenerateInput("need at least one subject map")
    lattice = maps[0].lattice
    if min(lattice.shape) < MIN_AXIS_SITES:
        raise DegenerateInput(f"maps need at least {MIN_AXIS_SITES} sites on every lattice "
                              f"axis, got shape {lattice.shape}")
    if not all(amap.lattice.matches(lattice) for amap in maps[1:]):
        raise DegenerateInput("all subject maps must share one lattice")
    return lattice


def write_map_csv(amap, path):
    lat = amap.lattice
    lines = [
        "dims," + ",".join(str(n) for n in lat.shape),
        "spacing," + ",".join(repr(float(s)) for s in lat.spacing),
        "origin," + ",".join(repr(float(o)) for o in lat.origin),
    ]
    lines.extend(",".join(repr(float(v)) for v in row)
                 for row in amap.grid.reshape(lat.shape[0], -1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_map_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 4:
        raise ValidationError(f"{path}: not a map file (needs 3 header lines + data)")
    header = {}
    for key in ("dims", "spacing", "origin"):
        parts = lines.pop(0).split(",")
        if parts[0] != key:
            raise ValidationError(f"{path}: expected header line '{key}', got '{parts[0]}'")
        header[key] = parts[1:]
    try:
        lattice = Lattice(shape=tuple(int(x) for x in header["dims"]),
                          spacing=np.array([float(x) for x in header["spacing"]]),
                          origin=np.array([float(x) for x in header["origin"]]))
        rows = [[float(x) for x in ln.split(",")] for ln in lines]
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    width = math.prod(lattice.shape[1:])
    if len(rows) != lattice.shape[0] or any(len(row) != width for row in rows):
        raise ValidationError(
            f"{path}: expected {lattice.shape[0]} value rows of {width} for dims "
            f"{','.join(map(str, lattice.shape))}")
    values = np.array(rows).ravel()
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{path}: map values must be finite")
    return ActivationMap(lattice, values)
