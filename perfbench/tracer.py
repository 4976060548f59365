"""Per-layer spans recorded from outside the library.

`Tracer.install` replaces each traced `ptgauge` function with a wrapper in
every `ptgauge.*` namespace that binds it: the home module, each module that
imported it with `from .x import f`, the package itself, and
`verification.ALL_CHECKS`, which holds the check objects.  Calls inside the
home module resolve through its globals and so reach the wrapper as well.

Each call is a span with a parent id.  Self time is a span's duration minus
the durations of its direct children.  Functions that have a `peak_alloc_mb`
metric run with tracemalloc started at entry and stopped at exit, so the
peak is per call and tracemalloc costs nothing elsewhere.

The computed counters repeat exactly from run to run:
  n_max, sum_n3   dimension n of the first argument (max, and sum of n^3)
  out_bytes       nbytes of the distinct arrays reachable from the result
  bytes           size of the files whose paths the call returned
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import sys
import time
import tracemalloc

import numpy as np

MB = 1024.0 * 1024.0


def reachable_nbytes(obj) -> int:
    """nbytes of the distinct ndarrays reachable through fields and containers."""
    seen = set()
    total = 0
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            total += o.nbytes
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            stack.extend(getattr(o, f.name) for f in dataclasses.fields(o))
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
    return total


class _Span:
    __slots__ = ("name", "parent", "start", "end", "outermost", "alloc", "size",
                 "child_time")

    def __init__(self, name, parent, outermost):
        self.name = name
        self.parent = parent
        self.outermost = outermost
        self.start = self.end = 0.0
        self.alloc = None
        self.size = None
        self.child_time = 0.0


class Tracer:
    """Wraps `<module>.<function>` names from a list of metric names.

    A metric name is `<module>.<function>.<stat>`; every function with a
    `calls` metric is wrapped, and its other stats say what else to record.
    """

    def __init__(self, metric_names):
        self.metric_names = list(metric_names)
        self.stats = {}
        for name in self.metric_names:
            func, stat = name.rsplit(".", 1)
            self.stats.setdefault(func, set()).add(stat)
        self.spans = []
        self._stack = []
        self._depth = {}

    # -- installation -----------------------------------------------------

    def install(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "ptgauge" or n.startswith("ptgauge."))]
        wrappers = {}
        for qualname, stats in self.stats.items():
            if "calls" not in stats:
                continue
            module, func = qualname.split(".")
            original = getattr(importlib.import_module(f"ptgauge.{module}"), func)
            wrapper = self._wrap(qualname, original, stats)
            wrappers[id(original)] = wrapper
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
        checks = importlib.import_module("ptgauge.verification").ALL_CHECKS
        checks[:] = [wrappers.get(id(check), check) for check in checks]

    def _wrap(self, name, fn, stats):
        alloc = "peak_alloc_mb" in stats
        size = "n_max" in stats or "sum_n3" in stats
        out_bytes = "out_bytes" in stats
        file_bytes = "bytes" in stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = self._depth.get(name, 0)
            span = _Span(name, self._stack[-1] if self._stack else None, depth == 0)
            self.spans.append(span)
            self._stack.append(span)
            self._depth[name] = depth + 1
            if size:
                span.size = int(np.shape(args[0])[0])
            if alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if alloc:
                    span.alloc = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
                self._depth[name] = depth
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
            if out_bytes:
                span.size = reachable_nbytes(result)
            elif file_bytes:
                span.size = sum(os.path.getsize(p) for p in result)
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------

    def metrics(self) -> dict:
        """Every `<module>.<function>.<stat>` metric as a number."""
        by_name = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
        out = {}
        for metric in self.metric_names:
            func, stat = metric.rsplit(".", 1)
            spans = by_name.get(func, [])
            if stat == "calls":
                value = len(spans)
            elif stat == "s":
                value = sum(s.end - s.start for s in spans if s.outermost)
            elif stat == "self_s":
                value = sum(s.end - s.start - s.child_time for s in spans)
            elif stat == "peak_alloc_mb":
                value = max((s.alloc for s in spans), default=0) / MB
            elif stat == "n_max":
                value = max((s.size for s in spans), default=0)
            elif stat == "sum_n3":
                value = sum(s.size ** 3 for s in spans)
            elif stat in ("out_bytes", "bytes"):
                value = sum(s.size for s in spans)
            else:
                raise KeyError(f"no rule for metric {metric}")
            out[metric] = value
        return out
