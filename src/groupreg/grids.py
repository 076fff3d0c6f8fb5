"""Regular lattices and activation maps.

An activation map is a regular lattice of d-dimensional locations plus one
intensity value per site (a subject map or the latent template). Sites are
ordered row-major; that ordering is also the NNGP site ordering.

Map file format (CSV): a 3-line header (dims, spacing, origin) followed by the
row-major values, one grid row per line (a single column in 1D). Floats are
written with shortest-roundtrip repr, so read(write(m)) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, ValidationError
from .interp import MIN_AXIS_SITES


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
        spacing = _as_vector(self.spacing, d)
        if np.any(spacing <= 0):
            raise ValidationError("lattice spacing must be > 0")
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", _as_vector(self.origin, d))

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
        if self.dim == 1:
            return axes[0][:, None]
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([g0.ravel(), g1.ravel()])

    def bounds(self):
        """(lower, upper) corners of the bounding box."""
        upper = self.origin + self.spacing * (np.asarray(self.shape) - 1)
        return self.origin.copy(), upper

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
    for amap in maps[1:]:
        if amap.lattice.shape != lattice.shape or not (
                np.allclose(amap.lattice.spacing, lattice.spacing)
                and np.allclose(amap.lattice.origin, lattice.origin)):
            raise DegenerateInput("all subject maps must share one lattice")
    return lattice


def write_map_csv(amap, path):
    lat = amap.lattice
    lines = [
        "dims," + ",".join(str(n) for n in lat.shape),
        "spacing," + ",".join(repr(float(s)) for s in lat.spacing),
        "origin," + ",".join(repr(float(o)) for o in lat.origin),
    ]
    grid = amap.grid
    if lat.dim == 1:
        lines.extend(repr(float(v)) for v in grid)
    else:
        lines.extend(",".join(repr(float(v)) for v in row) for row in grid)
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
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    width = lattice.shape[1] if lattice.dim == 2 else 1
    if len(rows) != lattice.shape[0] or any(len(row) != width for row in rows):
        raise ValidationError(
            f"{path}: expected {lattice.shape[0]} value rows of {width} for dims "
            f"{','.join(map(str, lattice.shape))}")
    return ActivationMap(lattice, np.array(rows).ravel())
