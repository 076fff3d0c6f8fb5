"""Print the seconds and the traced peak memory of `model.build_geometry`
on square lattices of 28, 64 and 128 sites a side (unit spacing, library
margin 9, m = 10): the neighbor library, the template's predecessor sets and
their pattern table.

The seconds are the least of three untraced calls; the peak is that of a
fourth call under tracemalloc, which counts numpy's allocations. The three
sizes take about 1 s in all on a 2-core x86-64 machine (about 17 s when
every row of the neighbor tables was ranked against all V sites).

    PYTHONPATH=src python tools/geometry_times.py
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from groupreg.grids import Lattice
from groupreg.model import Hyperparams, build_geometry

SIDES = (28, 64, 128)
MARGIN = 9
M = 10


def main():
    print("| lattice | build_geometry s | traced peak MB |")
    print("|---|---|---|")
    for n in SIDES:
        lattice = Lattice((n, n), np.ones(2), np.zeros(2))
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            build_geometry(lattice, Hyperparams(m=M), MARGIN)
            seconds.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            build_geometry(lattice, Hyperparams(m=M), MARGIN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"| {n}x{n} | {min(seconds):.3f} | {peak / 1e6:.1f} |")


if __name__ == "__main__":
    main()
