"""A fixed piece of work that gauges how fast the machine runs at a moment.

On a shared machine the same work can take up to 1.9x longer from one
stretch of seconds to the next, as neighbours come and go; two sets of runs
taken minutes apart can differ by 20% in their medians. No statistic of
wall times alone holds still under that.

The benchmark therefore reads this reference unit while the program works:
a SIGALRM handler runs it every INTERVAL_S seconds of wall time inside each
timed stretch (a set-up, a `Chain.run`, a whole `groupreg fit` process),
and once just before and just after. The unit never changes, so its time
is the machine's speed at that moment. The program's seconds, less the
time spent reading, are then reported at reference speed: seconds x
REFERENCE_S / the mean unit time read alongside them. On a machine where
one unit takes REFERENCE_S, that is the wall time a user sees.

The unit mixes what the program spends its time on: batched small LAPACK
solves and a Python loop over small numpy products. Over runs at different
moments, the ratio of a glyph28 sweep to the unit moved by 1.3% while the
sweep itself moved by 13%; on curves1d 4% against 24%.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

# About what one unit took (2.9 to 4.9 ms) on the 2-core x86-64 machine the
# benchmark was tuned on. It only sets the scale of the reported seconds.
REFERENCE_S = 0.003
INTERVAL_S = 0.1      # wall seconds between readings inside a timed stretch

_rng = np.random.default_rng(0)
_a = _rng.standard_normal((400, 15, 15))
_A = _a @ _a.transpose(0, 2, 1) + 15.0 * np.eye(15)
_B = _rng.standard_normal((400, 15, 1))
_V = _rng.standard_normal(12)


def unit():
    """The reference work: fixed inputs, a fixed result."""
    np.linalg.solve(_A, _B)
    total = 0.0
    for _ in range(1500):
        total += float(_V @ _V)
    return total


class Gauge:
    """Unit times read during stretches of work, and the seconds they took."""

    def __init__(self):
        self.readings = []        # seconds per unit, one per read
        self.spent = 0.0          # seconds spent reading
        self.seconds = 0.0        # seconds of measured work, reading left out

    def read(self):
        """Run one reference unit and record the seconds it took."""
        t0 = time.perf_counter()
        unit()
        spent = time.perf_counter() - t0
        self.readings.append(spent)
        self.spent += spent

    @contextmanager
    def measure(self, interval=INTERVAL_S):
        """Time the block into `seconds`, reading the gauge throughout.

        The handler runs in the main thread between bytecodes, so it draws
        no random numbers and changes no result; its time is taken out.
        With `interval` None the block is timed and the gauge is not read.
        """
        if interval is None:
            t0 = time.perf_counter()
            try:
                yield self
            finally:
                self.seconds += time.perf_counter() - t0
            return
        self.read()
        previous = signal.signal(signal.SIGALRM, lambda *_: self.read())
        spent0, t0 = self.spent, time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.seconds += time.perf_counter() - t0 - (self.spent - spent0)
            signal.signal(signal.SIGALRM, previous)
            self.read()

    def at_reference_speed(self):
        """The measured seconds at reference speed."""
        if not self.readings:
            raise ValueError("no gauge reading was taken alongside the work")
        return self.seconds * REFERENCE_S / float(np.mean(self.readings))


def warm_up():
    """Run the unit a few times, so the first reading pays no start-up cost."""
    for _ in range(20):
        unit()
