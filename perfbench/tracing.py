"""Spans around the package's public functions, installed from outside.

`Tracer.install` replaces a function at every binding callers use: the
defining module and every `groupreg` module that imported it by name (the
sampler and model modules import the spatial kernels that way, so patching
`groupreg.spatial` alone would miss most calls). Methods are replaced on
their class. `uninstall` restores every binding.

Each span records name, start, end and parent. Its region is the nearest
enclosing set-up, sweep, run, summary or write span, so a kernel called
during set-up is counted apart from the same kernel called in a sweep.
Self time is a span's duration minus the durations of its children.
Spans are kept in memory only.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# Spans that open a region; every span below them inherits it.
REGIONS = {
    "sampler.Chain": "setup",
    "sampler.run": "run",
    "sampler.sweep": "sweep",
    "sampler.summarize": "summary",
    "store.save_store": "write",
    "store.export_csv": "write",
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []           # span name per span
        self.parents = []         # parent span index, -1 for a root
        self.starts = []
        self.ends = []
        self.regions = []
        self.info = {}            # span index -> dict of counts
        self._child_time = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, info_fn=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.names)
            parent = tracer._stack[-1] if tracer._stack else -1
            region = REGIONS.get(name, tracer.regions[parent] if parent >= 0 else "other")
            tracer.names.append(name)
            tracer.parents.append(parent)
            tracer.regions.append(region)
            tracer.ends.append(None)
            tracer._child_time.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(tracer.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.ends[idx] = end
                if parent >= 0:
                    tracer._child_time[parent] += end - tracer.starts[idx]
            if info_fn is not None:
                tracer.info[idx] = info_fn(args, kwargs, result)
            return result

        return traced

    def install(self, module, attr, name, info_fn=None):
        """Wrap `module.attr` (a function or Class.method) at every binding."""
        owner_name, _, member = attr.partition(".")
        owner = getattr(module, owner_name)
        if member:
            original = getattr(owner, member)
            setattr(owner, member, self._wrap(name, original, info_fn))
            self._restore.append((owner, member, original))
            return
        wrapped = self._wrap(name, owner, info_fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "groupreg" or mod_name.startswith("groupreg.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is owner:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, owner))

    def uninstall(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def durations(self):
        return np.asarray(self.ends, dtype=float) - np.asarray(self.starts, dtype=float)

    def self_times(self):
        return self.durations() - np.asarray(self._child_time, dtype=float)

    def totals(self):
        """{(region, name): {"calls", "seconds", "self_seconds", <info sums>}}."""
        dur = self.durations()
        own = self.self_times()
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, region) in enumerate(zip(self.names, self.regions)):
            row = out[(region, name)]
            row["calls"] += 1
            row["seconds"] += dur[i]
            row["self_seconds"] += own[i]
            for key, val in self.info.get(i, {}).items():
                row[key] += val
        return out

    def span_seconds(self, name):
        dur = self.durations()
        return np.array([dur[i] for i, n in enumerate(self.names) if n == name])
