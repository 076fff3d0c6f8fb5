"""Print the seeded-output table: a short hash of every `SampleStore` array
of a fixed set of fits, one row per fit.

A cell is the first 12 hex digits of the SHA-256 of
`np.ascontiguousarray(arr).tobytes()`. The rows are the symmetric fits of
glyph sim 7 (120 sweeps) and of cosine and indicator sims 0-3 (200 sweeps
each), then the conventional fit (`fit-baseline`) of cosine sim 1 (200
sweeps): 3 subjects, chain seed 7, burn-in half the sweeps, thin 1, every
other setting at its default. A change that keeps seeded outputs
bit-identical prints the same table before and after it. The digits depend
on numpy and the BLAS, so compare tables from one environment. The ten fits
take about 5 s on a 2-core x86-64 machine.

    PYTHONPATH=src python tools/store_hashes.py
"""

from __future__ import annotations

import hashlib

import numpy as np

from groupreg.baseline import ConventionalChain
from groupreg.config import RunConfig
from groupreg.sampler import Chain
from groupreg.synth import ScenarioSpec, generate

FIELDS = ("X", "H_fwd", "H_rev", "beta", "sigma2", "alpha", "rho")
ROWS = ([("symmetric", "glyph", 7, 120)]
        + [("symmetric", scenario, sim, 200) for scenario in ("cosine", "indicator")
           for sim in range(4)]
        + [("conventional", "cosine", 1, 200)])


def short_hash(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:12]


def store_row(model, scenario, sim, sweeps):
    """The short hash of each `SampleStore` array, in `FIELDS` order, of one fit."""
    maps, _ = generate(ScenarioSpec(scenario, seed=sim))
    cfg = RunConfig(model=model, seed=7, total=sweeps, burn_in=sweeps // 2, thin=1)
    chain_class = ConventionalChain if model == "conventional" else Chain
    store, _ = chain_class(maps, cfg).run()
    return [short_hash(getattr(store, name)) for name in FIELDS]


def main():
    print("| store (chain seed 7; 200 sweeps unless noted) | " + " | ".join(FIELDS) + " |")
    print("|---" * (len(FIELDS) + 1) + "|")
    for model, scenario, sim, sweeps in ROWS:
        label = f"{model}, {scenario} sim {sim}" + (", 120 sweeps" if sweeps != 200 else "")
        print(f"| {label} | " + " | ".join(store_row(model, scenario, sim, sweeps)) + " |",
              flush=True)


if __name__ == "__main__":
    main()
