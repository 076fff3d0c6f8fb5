"""Print the sweep time of the package under src/ (HEAD) and, when another
package's source directory is given, of that one too (the base), from
chains whose sweeps alternate in one process.

The cases are glyph sim 0, cosine sim 1 and indicator sim 1: 3 subjects,
chain seed 1, burn-in half the sweeps, thin 1, every other setting at its
default. For each case one chain is built from each package, and the two
chains take turns, one sweep each (and, after burn-in, one record each),
the package that goes first alternating from sweep to sweep, so a burst of
load on a shared machine falls on both. The base package is copied under
another name, `groupreg_base`, into a temporary directory and imported
from there; this works because every import inside the package is
relative, and the base's `sampler` reuses the LAPACK extension that HEAD's
loaded.

A time cell is the mean ms per sweep, its record included. The ratio cell
splits each chain into ROUNDS equal runs of sweeps: it is the median over
the rounds of HEAD's time over the base's in the same round, with the least
and the largest of those ratios. `n_band` is the height, in rows, of each
chain's last template band, and "reused" the share of HEAD's sweeps whose
X step rescaled the band's kept NNGP sum (no T_i and no rho moved since it
was summed). The three cases take about 20 s with a base, 10 s without, on
a 2-core x86-64 machine. The times depend on the machine and its load, so
compare packages run together.

    python tools/sweep_times.py [BASE_SRC]
"""

from __future__ import annotations

import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

CASES = [("glyph", 0, 600), ("cosine", 1, 1200), ("indicator", 1, 1200)]
ROUNDS = 5
HEAD_SRC = Path(__file__).resolve().parent.parent / "src"


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def load_packages(base_src, scratch):
    """{name: package}: HEAD's `groupreg`, and the base's as `groupreg_base`."""
    sys.path.insert(0, str(HEAD_SRC))
    packages = {"HEAD": importlib.import_module("groupreg")}
    if base_src is not None:
        shutil.copytree(Path(base_src) / "groupreg", Path(scratch) / "groupreg_base")
        sys.path.insert(0, str(scratch))
        packages = {"base": importlib.import_module("groupreg_base"), **packages}
    return packages


def build(package, scenario, sim, sweeps):
    sampler = importlib.import_module(f"{package.__name__}.sampler")
    config = importlib.import_module(f"{package.__name__}.config")
    maps, _ = package.generate(package.ScenarioSpec(scenario, n_subjects=3, seed=sim))
    cfg = config.RunConfig(seed=1, total=sweeps, burn_in=sweeps // 2, thin=1)
    return sampler.Chain(maps, cfg)


def interleave(chains, sweeps):
    """Each chain's per-sweep seconds, (sweeps,) lists, and HEAD's reused sweeps."""
    seconds = {name: [] for name in chains}
    reused = 0
    names = list(chains)
    for it in range(sweeps):
        for name in names if it % 2 == 0 else names[::-1]:
            chain = chains[name]
            if name == "HEAD":
                reused += chain.state.band.holds(chain.state)
            start = time.perf_counter()
            chain.sweep()
            if it >= chain.config.burn_in:
                chain.record()
            seconds[name].append(time.perf_counter() - start)
    return seconds, reused


def main(argv):
    with tempfile.TemporaryDirectory() as scratch:
        packages = load_packages(argv[0] if argv else None, scratch)
        names = list(packages)
        head = ["case", *(f"{name} ms/sweep" for name in names)]
        if len(names) == 2:
            head.append("HEAD / base, median (min-max)")
        head += [*(f"{name} n_band" for name in names), "HEAD reused"]
        print("| " + " | ".join(head) + " |")
        print("|" + "---|" * len(head))
        for scenario, sim, sweeps in CASES:
            chains = {name: build(package, scenario, sim, sweeps)
                      for name, package in packages.items()}
            seconds, reused = interleave(chains, sweeps)
            row = [f"{scenario} sim {sim}, {sweeps} sweeps",
                   *(f"{1e3 * sum(seconds[name]) / sweeps:.3f}" for name in names)]
            if len(names) == 2:
                step = sweeps // ROUNDS
                ratios = [sum(seconds["HEAD"][r:r + step]) / sum(seconds["base"][r:r + step])
                          for r in range(0, step * ROUNDS, step)]
                row.append(f"{median(ratios):.3f} ({min(ratios):.3f}-{max(ratios):.3f})")
            row += [str(chains[name].state.band.n_band) for name in names]
            row.append(f"{reused / sweeps:.2f}")
            print("| " + " | ".join(row) + " |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
