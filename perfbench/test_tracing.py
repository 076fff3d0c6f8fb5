"""Tests for the span tracer and the bindings it installs at.

Run from the repository root: python3 -m pytest -q perfbench
"""

import itertools

import groupreg
import groupreg.model
import groupreg.sampler
import groupreg.spatial

import layers
from tracing import Tracer


def test_install_reaches_every_binding_and_uninstall_restores():
    original = groupreg.spatial.batched_nngp_weights
    tracer = Tracer()
    with tracer:
        tracer.install(groupreg.spatial, "batched_nngp_weights", "nngp")
        for mod in (groupreg.spatial, groupreg.sampler, groupreg.model):
            assert mod.batched_nngp_weights is not original
            assert mod.batched_nngp_weights.__wrapped__ is original
    for mod in (groupreg.spatial, groupreg.sampler, groupreg.model):
        assert mod.batched_nngp_weights is original


def test_method_install_and_restore():
    original = groupreg.Chain.sweep
    with Tracer() as tracer:
        tracer.install(groupreg.sampler, "Chain.sweep", "sampler.sweep")
        assert groupreg.Chain.sweep is not original
    assert groupreg.Chain.sweep is original


def test_self_time_regions_and_info():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer._wrap("inner", lambda: 7, lambda a, k, r: {"rows": r})
    outer = tracer._wrap("sampler.sweep", lambda: inner() + inner())
    assert outer() == 14
    # outer: 0..5, inner spans 1..2 and 3..4
    assert list(tracer.durations()) == [5.0, 1.0, 1.0]
    assert list(tracer.self_times()) == [3.0, 1.0, 1.0]
    totals = tracer.totals()
    assert totals[("sweep", "inner")]["calls"] == 2
    assert totals[("sweep", "inner")]["rows"] == 14
    assert tracer.parents == [-1, 0, 0]


def test_every_target_exists():
    import importlib
    for module_name, attr, _, _ in layers.TARGETS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj)
