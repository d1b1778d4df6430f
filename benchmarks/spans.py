"""Outside-in span tracing of the pgl package.

``install`` swaps the public functions of each pgl module (and a few methods)
for timing wrappers.  A wrapper records one span per call: name, start, end,
parent span and run id.  Spans stay in flat in-memory arrays until the
benchmark writes them out at the end.  Self time is a span's duration minus
the time its child spans cover; calls are strictly nested on one thread, so
that is the sum of the direct children's durations.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# Modules whose public functions get wrapped, in the order they are named.
MODULES = ("tensor", "layers", "network", "training", "data", "memory",
           "checkpoint", "config", "cli")

# Methods wrapped under an explicit span name.
METHODS = {
    ("training", "NesterovSGD", "step"): "training.NesterovSGD.step",
    ("network", "DecoupledModel", "forward_local"): "network.forward_local",
    ("network", "DecoupledModel", "forward_global"): "network.forward_global",
    ("network", "DecoupledModel", "aux_logits"): "network.aux_logits",
}


class Tracer:
    """Span recorder.  Records only while ``run_id`` is non-negative."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self.run_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.run_id < 0:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._open[-1] if tracer._open else -1)
            tracer.run.append(tracer.run_id)
            tracer.end.append(0.0)
            tracer._open.append(idx)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._open.pop()

        return traced

    def __len__(self):
        return len(self.start)

    def self_times(self):
        """({(run id, name): self seconds}, {(run id, name): calls})."""
        if not len(self):
            return {}, {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        run = np.frombuffer(self.run, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        runs = np.unique(run)
        key = np.searchsorted(runs, run) * len(self.names) + name
        size = len(runs) * len(self.names)
        secs = np.bincount(key, weights=own, minlength=size)
        calls = np.bincount(key, minlength=size)
        self_s, count = {}, {}
        for k in np.flatnonzero(calls):
            r, n = divmod(int(k), len(self.names))
            self_s[int(runs[r]), self.names[n]] = float(secs[k])
            count[int(runs[r]), self.names[n]] = int(calls[k])
        return self_s, count

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 run=np.frombuffer(self.run, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def install(tracer: Tracer):
    """Wrap every public pgl function and the METHODS, then rebind each
    reference to a wrapped function in every loaded pgl module, so names
    imported with ``from .x import f`` are traced too."""
    wrapped = {}
    for short in MODULES:
        mod = sys.modules[f"pgl.{short}"]
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapped[obj] = tracer.wrap(obj, f"{short}.{attr}")
    for (short, cls_name, meth), span in METHODS.items():
        cls = getattr(sys.modules[f"pgl.{short}"], cls_name)
        setattr(cls, meth, tracer.wrap(getattr(cls, meth), span))
    for modname, mod in list(sys.modules.items()):
        if modname == "pgl" or modname.startswith("pgl."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
