"""Spans around the program's layer boundaries, recorded from outside.

The program looks up its collaborators through module attributes at
call time (``solver.assemble_relaxed``, ``bench.solve_irr``, ...).  A
Tracer replaces such attributes with timing wrappers, keeps every span
in memory (name, start, end, parent) and restores the originals on
close.  A layer's self time is its spans' duration minus the time their
child spans cover.  Attributes that no longer exist are reported as
absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, operation]
        self.calls = []      # (span index, args, return value) where kept
        self.op = 0          # the operation spans belong to; the caller advances it
        self.absent = []
        self._stack = []
        self._patched = []

    def wrap(self, module_name, attr, span_name, keep_result=False):
        """Time every call made through module_name.attr as span_name."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return

        @functools.wraps(original)
        def timed(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [span_name, time.perf_counter(), None, parent, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if keep_result:
                self.calls.append((idx, args, out))
            return out

        setattr(module, attr, timed)
        self._patched.append((module, attr, original))

    def close(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def dump(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
