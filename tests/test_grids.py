import numpy as np
import pytest

from groupreg.baseline import landmark_lattice
from groupreg.errors import DegenerateInput, ValidationError
from groupreg.grids import (ActivationMap, Lattice, common_lattice, make_lattice_1d, read_map_csv,
                            write_map_csv)
from groupreg.interp import Warp

LATTICES = {
    "cosine": make_lattice_1d(-4.0, 4.0, 0.1),
    "indicator": make_lattice_1d(-5.0, 5.0, 0.05),
    "glyph": Lattice((28, 28), np.ones(2), np.zeros(2)),
    "anisotropic": Lattice((9, 13), np.array([0.7, 1.3]), np.array([-2.0, 0.5])),
    "offset": Lattice((20, 20), np.array([0.1, 0.1]), np.array([5.0, -2.2])),
    "four_sites": Lattice((4,), np.ones(1), np.zeros(1)),
    "six_by_six": Lattice((6, 6), np.ones(2), np.zeros(2)),
}


def branch_locations(lattice):
    """Site locations written out per dimension, row-major: the oracle of the
    dimension-generic `Lattice.locations`."""
    axes = [lattice.origin[a] + lattice.spacing[a] * np.arange(n)
            for a, n in enumerate(lattice.shape)]
    if lattice.dim == 1:
        return axes[0][:, None]
    g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.column_stack([g0.ravel(), g1.ravel()])


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_locations_are_the_per_dimension_branches_bit_for_bit(name):
    lattice = LATTICES[name]
    locs = lattice.locations()
    assert locs.shape == (lattice.n_sites, lattice.dim)
    assert np.array_equal(locs, branch_locations(lattice))


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(LATTICES))
def test_landmarks_are_the_per_dimension_slices_bit_for_bit(name, stride):
    lattice = LATTICES[name]
    grid = branch_locations(lattice).reshape(lattice.shape + (lattice.dim,))
    want = (grid[::stride].reshape(-1, 1) if lattice.dim == 1
            else grid[::stride, ::stride].reshape(-1, 2))
    assert np.array_equal(landmark_lattice(lattice, stride), want)


MAP_FILES = {
    "1d": (Lattice((3,), np.array([0.5]), np.array([-1.0])), [0.1, -2.0, 3e-20],
           "dims,3\nspacing,0.5\norigin,-1.0\n0.1\n-2.0\n3e-20\n"),
    "2d": (Lattice((2, 3), np.array([0.5, 2.0]), np.array([-1.0, 0.0])),
           [0.1, -2.0, 3e-20, 4.0, -0.0, 1.2345678901234567],
           "dims,2,3\nspacing,0.5,2.0\norigin,-1.0,0.0\n"
           "0.1,-2.0,3e-20\n4.0,-0.0,1.2345678901234567\n"),
}


@pytest.mark.parametrize("case", sorted(MAP_FILES))
def test_written_map_file_is_byte_exact_and_reads_back_exactly(tmp_path, case):
    """One grid row per line, a single column in 1D, shortest-roundtrip floats."""
    lattice, values, text = MAP_FILES[case]
    path = tmp_path / "map.csv"
    write_map_csv(ActivationMap(lattice, values), path)
    assert path.read_bytes() == text.encode("utf-8")
    back = read_map_csv(path)
    assert back.lattice.matches(lattice) and back.lattice.shape == lattice.shape
    assert np.array_equal(back.values, values)
    assert np.array_equal(np.signbit(back.values), np.signbit(values))


@pytest.mark.parametrize("case", sorted(MAP_FILES))
def test_a_map_file_row_of_the_wrong_width_is_rejected(tmp_path, case):
    lattice, values, text = MAP_FILES[case]
    path = tmp_path / "map.csv"
    lines = text.splitlines()
    lines[3] += ",1.0"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="value rows of"):
        read_map_csv(path)


def test_lattices_of_tiny_spacing_match_only_their_own_copies():
    """Spacings 1e-9 and 3e-9 differ by less than an absolute 1e-8, but are
    different lattices: `common_lattice` and `Warp` refuse the pair. Every
    lattice, scaled by 1e-9, still matches a copy of itself."""
    values = np.arange(6.0)
    pair = [ActivationMap(Lattice((6,), np.array([s]), np.zeros(1)), values)
            for s in (1e-9, 3e-9)]
    assert not pair[0].lattice.matches(pair[1].lattice)
    with pytest.raises(DegenerateInput, match="share one lattice"):
        common_lattice(pair)
    with pytest.raises(ValueError, match="share one lattice"):
        Warp(pair)
    for lattice in LATTICES.values():
        for scale in (1.0, 1e-9):
            a = Lattice(lattice.shape, scale * lattice.spacing, scale * lattice.origin)
            b = Lattice(a.shape, a.spacing.copy(), a.origin.copy())
            assert a.matches(b) and b.matches(a)
            shifted = Lattice(a.shape, a.spacing, a.origin + 0.5 * a.spacing)
            assert not a.matches(shifted)
