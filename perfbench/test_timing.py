"""Tests for the benchmark's seconds at reference speed.

Run from the repository root: python3 -m pytest -q perfbench
"""

import signal
import time
from pathlib import Path

import numpy as np
import pytest

from gauge import REFERENCE_S, Gauge, unit
from run import FitRecord


def slowed_gauge(factor, reads, seconds):
    """A gauge that timed `seconds` of work, every unit read taking `factor` x REFERENCE_S."""
    gauge = Gauge()
    gauge.readings = [factor * REFERENCE_S] * reads
    gauge.spent = reads * factor * REFERENCE_S
    gauge.seconds = seconds
    return gauge


def test_unit_is_fixed_work():
    assert unit() == unit()


def test_seconds_at_reference_speed_undo_a_slow_machine():
    # Work that takes 2 s at reference speed takes 3 s when every gauge
    # reading runs 1.5x slow; reported at reference speed it is 2 s again.
    assert slowed_gauge(1.5, 10, 3.0).at_reference_speed() == pytest.approx(2.0)
    assert slowed_gauge(1.0, 10, 2.0).at_reference_speed() == pytest.approx(2.0)


def test_no_reading_is_an_error():
    with pytest.raises(ValueError):
        Gauge().at_reference_speed()


def test_measure_reads_throughout_and_leaves_the_reading_out():
    gauge = Gauge()
    t0 = time.perf_counter()
    with gauge.measure(interval=0.02):
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:     # Python work, so the handler runs
            pass
    elapsed = time.perf_counter() - t0
    # one reading before, one after, and several in between
    assert len(gauge.readings) >= 5
    assert all(np.isfinite(r) and r > 0 for r in gauge.readings)
    assert gauge.seconds == pytest.approx(elapsed - gauge.spent, abs=0.02)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_measure_without_interval_only_times():
    gauge = Gauge()
    with gauge.measure(interval=None):
        time.sleep(0.05)
    assert gauge.readings == [] and gauge.spent == 0.0
    assert gauge.seconds >= 0.05


def test_measure_stops_the_timer_when_the_block_raises():
    gauge = Gauge()
    with pytest.raises(RuntimeError):
        with gauge.measure(interval=0.01):
            raise RuntimeError("set-up failed")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(gauge.readings) == 2


def test_fit_record_times_are_the_gauges():
    rec = FitRecord("fit", Path("."), sweeps=100, setup=slowed_gauge(2.0, 2, 2.0),
                    run=slowed_gauge(2.0, 25, 5.0))
    assert rec.setup_s == 2.0 and rec.sampling_seconds == 5.0
    assert rec.setup_ref_s == pytest.approx(1.0)
    assert rec.sampling_ref_s == pytest.approx(2.5)
