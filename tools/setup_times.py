"""Print the set-up time of `sampler.Chain(...)` (the alternating set-up, the
geometry build and the caches) in ms, and the set-up's Levenberg-Marquardt
points, for the package under src/ and, when another package's source
directory is given, for that one too.

The cases are cosine and indicator sims 0-3 and glyph sim 0: 3 subjects,
every setting at its default. Each package runs in fresh processes, one per
round, and the two packages' processes alternate; a process builds each
case's chain REPEATS times and reports the least of those times. A time
cell is the median over the ROUNDS rounds of those least times. The ratio
column pairs each round's two processes: it is the median over the rounds
of HEAD's time (the package under src/) over the given package's in the
same round, with the least and the largest of those ratios, so one round
run under a burst of load shows as a wide range, not as a shifted median.
A points cell counts the points, summed over subjects, at which the
set-up's LM fits evaluate residuals and Jacobians (every row handed to
`levenberg_marquardt`'s `points` callable), in one further build that is
not timed. The five rounds of both packages take about 15 s on a 2-core
x86-64 machine. The times depend on the machine and its load, so compare
packages run together.

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
ROUNDS = 5
HEAD_SRC = Path(__file__).resolve().parent.parent / "src"


def count_lm_points(build):
    """The LM points that `build()` evaluates: the rows handed to every
    `sampler.levenberg_marquardt` call's `points` callable."""
    from groupreg import sampler

    lm, count = sampler.levenberg_marquardt, [0]

    def counted(points, *args, **kwargs):
        def counted_points(tops, rows):
            count[0] += len(rows)
            return points(tops, rows)
        return lm(counted_points, *args, **kwargs)

    sampler.levenberg_marquardt = counted
    try:
        build()
    finally:
        sampler.levenberg_marquardt = lm
    return count[0]


def least_times():
    """Each case's least `Chain(...)` time over REPEATS builds, in ms, and
    its set-up's LM points."""
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
        points = count_lm_points(lambda: Chain(maps, RunConfig()))
        out[f"{scenario} sim {sim}"] = (1e3 * min(seconds), points)
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
        head.append("HEAD / base, median (min-max)")
    head += [f"{name} LM points" for name in names]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for case in rounds["HEAD"][0]:
        times = {name: [r[case][0] for r in rounds[name]] for name in names}
        row = [case, *(f"{median(times[name]):.1f}" for name in names)]
        if len(names) == 2:
            ratios = [h / b for h, b in zip(times["HEAD"], times["base"])]
            row.append(f"{median(ratios):.3f} ({min(ratios):.3f}-{max(ratios):.3f})")
        row += [str(rounds[name][0][case][1]) for name in names]
        print("| " + " | ".join(row) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
