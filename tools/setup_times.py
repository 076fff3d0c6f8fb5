"""Print the set-up time of `sampler.Chain(...)` (the alternating set-up, the
geometry build and the caches) in ms, for the package under src/ and, when
another package's source directory is given, for that one too.

The cases are cosine and indicator sims 0-3 and glyph sim 0: 3 subjects,
every setting at its default. Each package runs in fresh processes, one per
round, and the two packages' processes alternate; a process builds each
case's chain REPEATS times and reports the least of those times. A cell is
the median over the ROUNDS rounds of those least times. The ratio column is
HEAD's time (the package under src/) over the given package's. The three
rounds of both packages take about 11-15 s on a 2-core x86-64 machine. The
times depend on the machine and its load, so compare packages run together.

    python tools/setup_times.py [BASE_SRC]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

CASES = [(scenario, sim) for scenario in ("cosine", "indicator") for sim in range(4)]
CASES.append(("glyph", 0))
REPEATS = 5
ROUNDS = 3
HEAD_SRC = Path(__file__).resolve().parent.parent / "src"


def least_times():
    """Each case's least `Chain(...)` time over REPEATS builds, in ms."""
    from groupreg.config import RunConfig
    from groupreg.sampler import Chain
    from groupreg.synth import ScenarioSpec, generate

    out = {}
    for scenario, sim in CASES:
        maps, _ = generate(ScenarioSpec(scenario, n_subjects=3, seed=sim))
        seconds = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            Chain(maps, RunConfig())
            seconds.append(time.perf_counter() - start)
        out[f"{scenario} sim {sim}"] = 1e3 * min(seconds)
    return out


def run_child(src):
    env = dict(os.environ, PYTHONPATH=str(src))
    # The child's stderr is not captured, so a failing child's traceback is printed.
    done = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def main(argv):
    if argv == ["--child"]:
        print(json.dumps(least_times()))
        return
    packages = {"HEAD": HEAD_SRC}
    if argv:
        packages = {"base": Path(argv[0]).resolve(), **packages}
    rounds = {name: [] for name in packages}
    for _ in range(ROUNDS):
        for name, src in packages.items():
            rounds[name].append(run_child(src))
    names = list(packages)
    head = ["case", *(f"{name} ms" for name in names)]
    if len(names) == 2:
        head.append("HEAD / base")
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for case in rounds["HEAD"][0]:
        cells = [median([r[case] for r in rounds[name]]) for name in names]
        row = [case, *(f"{c:.1f}" for c in cells)]
        if len(names) == 2:
            row.append(f"{cells[1] / cells[0]:.3f}")
        print("| " + " | ".join(row) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
