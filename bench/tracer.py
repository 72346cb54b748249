"""In-memory spans around calls into the library's layers.

A traced run replaces module attributes such as `thuemorse.trace.trace_range`
with wrappers that record a span (name, start, end, request id, parent).
The benchmark calls the library through module attributes, and so does
`thuemorse.verify`, so one patch covers both.  Calls a module makes
through names it imported itself are not traced; a span is a call across
a layer boundary as a caller outside that layer sees it.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

REQUEST = "request"


class Tracer:
    def __init__(self):
        # each span: [name, start, end, request id, parent index]
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[0] if stack else index, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def patch(self, names) -> None:
        """Wrap each `module.function` of the thuemorse package by its name."""
        for name in names:
            module_name, fn_name = name.split(".")
            module = importlib.import_module(f"thuemorse.{module_name}")
            setattr(module, fn_name, self.wrap(name, getattr(module, fn_name)))

    def summary(self) -> dict:
        """Per span name: calls, busy seconds and self seconds.

        Busy time counts a span only when no enclosing span has the same
        name, so recursion through a patched name is not counted twice.
        Self time is the span's duration minus that of its direct children.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, _, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, start, end, _, parent) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - covered[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][4]
            if parent < 0:
                row["busy_s"] += end - start
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, request, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "request": request, "parent": parent}) + "\n")
