"""Outside-in span tracing of the muchan layers.

``Tracer.install`` replaces every public function of every ``muchan``
module with a recording wrapper, in every ``muchan`` module namespace
that binds it.  That matters because ``from .channels import choi_of``
gives the importing module its own binding: patching only
``muchan.channels`` would miss the calls made from ``muchan.analysis``.
No file of the library changes.

A span is (name, op id, parent span, start, end).  Spans are recorded
only while an op is open (``begin_op`` .. ``end_op``), kept in memory and
written out by ``write``.  Layer self time is a span's duration minus the
durations of its direct children; calls are single-threaded (the search
runs with its default ``max_workers=1``), so children never overlap.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
import types

import numpy as np

def _public_functions():
    """{function: "module.name"} for every public muchan function."""
    found = {}
    for mod in _muchan_modules():
        for attr, val in vars(mod).items():
            if (not attr.startswith("_") and isinstance(val, types.FunctionType)
                    and val.__module__.startswith("muchan.")):
                found[val] = f"{val.__module__.rsplit('.', 1)[1]}.{val.__qualname__}"
    return found


def _muchan_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "muchan" or n.startswith("muchan."))]


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self.ops: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.op_tags: list = []
        self.restarts = 0
        self.searches = 0
        self.searches_found = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self._op = None
        self._stack: list[int] = []
        self._patches: list = []

    # ------------------------------------------------------------ wiring
    def install(self):
        wrappers = {fn: self._wrap(fn, name)
                    for fn, name in _public_functions().items()}
        for mod in _muchan_modules():
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def _wrap(self, fn, name):
        after = {
            "search.search_isometry": self._count_search,
            "io.save": self._count_written,
            "io.load": self._count_read,
        }.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            stack = self._stack
            idx = len(self.names)
            self.names.append(name)
            self.ops.append(self._op)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _count_search(self, args, kwargs, res):
        self.searches += 1
        self.searches_found += res.status == "found"
        self.restarts += len(res.restart_log)

    def _count_written(self, args, kwargs, out):
        self.bytes_written += os.path.getsize(
            kwargs["path"] if "path" in kwargs else args[1])

    def _count_read(self, args, kwargs, out):
        self.bytes_read += os.path.getsize(
            kwargs["path"] if "path" in kwargs else args[0])

    # --------------------------------------------------------------- ops
    def begin_op(self, tag=None):
        self._op = len(self.op_tags)
        self.op_tags.append(tag)

    def end_op(self):
        self._op = None

    # ----------------------------------------------------------- results
    def span_arrays(self):
        n = len(self.names)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        return dur, dur - child, parents

    def write(self, path):
        """Write one JSON array per span: [name, op, parent, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.ops, self.parents, self.starts, self.ends):
                fh.write(json.dumps(row))
                fh.write("\n")
