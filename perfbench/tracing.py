"""Spans recorded from the benchmark's side around calls into edgeqet.

A span is a dict with ``id``, ``trace`` (the iteration it belongs to),
``name``, ``parent``, ``start`` and ``end`` (``time.perf_counter``
seconds, which on Linux read CLOCK_MONOTONIC and so compare across the
benchmark's processes), plus any attributes taken from the call's
result.  Spans stay in memory and are written out when a run ends.
"""

import functools
import os
import statistics
import sys
import time
from contextlib import contextmanager


def _quad_attrs(result):
    value = getattr(result, "value", 0.0)
    return {"n_evals": getattr(result, "n_evals", None),
            "subdivisions": getattr(result, "subdivisions_used", None),
            "rel_err_est": (result.error_estimate / abs(value)
                            if value else None)}


# (span name, defining module, attribute, result -> extra attributes)
TARGETS = (
    ("energetics.compute_EB", "edgeqet.energetics", "compute_EB", None),
    ("energetics._eb_integral", "edgeqet.energetics", "_eb_integral",
     _quad_attrs),
    ("energetics.compute_EA", "edgeqet.energetics", "compute_EA", None),
    ("energetics.compute_E1", "edgeqet.energetics", "compute_E1", None),
    ("energetics.energy_budget", "edgeqet.energetics", "energy_budget", None),
    ("energetics.eb_order_estimate", "edgeqet.energetics",
     "eb_order_estimate", None),
    ("oracle.default_grid", "edgeqet.oracle", "default_grid", None),
    ("oracle.run_protocol", "edgeqet.oracle", "run_protocol", None),
    ("oracle.build_hamiltonians", "edgeqet.oracle", "build_hamiltonians",
     None),
    ("oracle.local_energy_density", "edgeqet.oracle", "local_energy_density",
     None),
    ("oracle.expm", "edgeqet.oracle", "expm", None),
    ("oracle.evolve", "edgeqet.oracle", "evolve", None),
    ("oracle.measure_gaussian", "edgeqet.oracle", "measure_gaussian", None),
)


class Tracer:
    """Records spans; ``install`` wraps the TARGETS wherever edgeqet
    modules bind them, ``uninstall`` puts the originals back."""

    def __init__(self, root_parent=None):
        self.spans = []
        self.trace = None
        self._stack = [root_parent] if root_parent else []
        self._prefix = f"{os.getpid()}."
        self._count = 0
        self._restore = []

    def _new_id(self):
        self._count += 1
        return f"{self._prefix}{self._count}"

    @contextmanager
    def span(self, name, **attrs):
        record = {"id": self._new_id(), "trace": self.trace, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    record.update(attrs_of(result))
                return result
        return traced

    def install(self):
        for name, module_name, attr, attrs_of in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, attrs_of)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.startswith("edgeqet")
                        and getattr(mod, attr, None) is original):
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


def duration(span):
    return span["end"] - span["start"]


def children_of(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def add_self_times(spans):
    """Self time: duration minus the time covered by direct children
    (calls are sequential, so children never overlap)."""
    kids = children_of(spans)
    for s in spans:
        s["self_s"] = duration(s) - sum(duration(c)
                                        for c in kids.get(s["id"], ()))


def summarize(spans):
    """name -> calls, total, self and median duration, seconds."""
    out = {}
    for name in sorted({s["name"] for s in spans}):
        group = [s for s in spans if s["name"] == name]
        out[name] = {"calls": len(group),
                     "total_s": sum(duration(s) for s in group),
                     "self_s": sum(s["self_s"] for s in group),
                     "median_s": statistics.median(duration(s)
                                                   for s in group)}
    return out
