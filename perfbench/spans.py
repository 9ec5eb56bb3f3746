"""Spans around calls into the package, recorded from the benchmark's files.

`Tracer.wrap` replaces a function on the module where its caller looks it
up (for example `scene_forest.cli.plan_moves`) with a wrapper that records
a span: name, start, end, parent span and scene id. Spans stay in memory
until the run writes them out. `restore` puts the original functions back.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time

# Span record fields.
ID, NAME, START, END, PARENT, SCENE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.scene = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._open_request = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _scene(self):
        return getattr(self._local, "scene", None) or self.scene

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        stack = self._stack()
        rec = [next(self._ids), name, 0.0, 0.0, stack[-1] if stack else None, self._scene()]
        stack.append(rec[ID])
        if name == "remote.request":
            self._open_request = rec[ID]
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def record_remote(self, name: str, start: float, end: float) -> None:
        """A span from the stub's server thread, parented to the open request."""
        self.spans.append([next(self._ids), name, start, end, self._open_request,
                           self.scene])

    def wrap(self, module, attr: str, name: str, hook=None, scene_of=None) -> None:
        """Trace `module.attr`; `hook(args, result)` sees each call's result and
        `scene_of(args)` names the scene for the calling thread."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if scene_of is not None:
                tracer._local.scene = scene_of(args)
            span_name = name(args) if callable(name) else name
            result = tracer.call(span_name, original, *args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total ms, and self ms (minus direct children)."""
        child_ms: dict[int, float] = {}
        for rec in self.spans:
            if rec[PARENT] is not None:
                child_ms[rec[PARENT]] = child_ms.get(rec[PARENT], 0.0) + (rec[END] - rec[START]) * 1e3
        out: dict[str, dict] = {}
        for rec in self.spans:
            ms = (rec[END] - rec[START]) * 1e3
            agg = out.setdefault(rec[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            agg["calls"] += 1
            agg["ms"] += ms
            agg["self_ms"] += ms - child_ms.get(rec[ID], 0.0)
        return out
