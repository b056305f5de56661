"""Span tracer for the benchmark's traced run.

The tracer replaces module-level names of the drlines package with timing
wrappers.  Code inside the package looks those names up at call time, so a
wrapper set on ``drlines.experiments.simulate`` sees every call that
``rasterize`` and ``sweep`` make, not only the calls made from here.

Two kinds of wrapper exist:

* ``span`` records one span per call (id, name, start, end, parent id, op
  id) and keeps per-name totals of calls, wall time and self time.  Self
  time is the span's duration minus the time its traced children covered.
* ``leaf`` is for hot functions that call nothing traced (``v_global`` runs
  about 780 000 times per robust op).  It keeps the same per-name totals
  and per-parent call counts but stores no span record, so memory stays
  bounded.

Span records are capped at ``max_spans`` per run; the number dropped is
reported alongside them.
"""
from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.stack: list = []       # [child_ns, span_id, name, leaf calls]
        self.stats: dict = {}       # name -> [calls, total_ns, self_ns]
        self.counters: dict = {}    # counter name -> value
        self.by_parent: dict = {}   # (parent name, leaf name) -> calls
        self.spans: list = []       # (id, name, start_ns, end_ns, parent, op)
        self.dropped = 0
        self.op = -1
        self._next_id = 0
        self._patches: list = []    # (module, attr, original, wrapper)
        self._leaf_names: list = []

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0, 0])

    def count(self, name: str, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn, hook=None, variant=None):
        """Wrap fn in a span.  ``hook(args, kwargs, result)`` runs after the
        span closes; ``variant(args, kwargs)`` appends a suffix to the name
        (the perturbed step is split by its mode)."""
        stack = self.stack
        clock = time.perf_counter_ns
        spans = self.spans
        leaf_names = self._leaf_names
        by_parent = self.by_parent
        tracer = self
        fixed = self._stat(name) if variant is None else None

        def wrapper(*args, **kwargs):
            if variant is None:
                label, st = name, fixed
            else:
                label = f"{name}.{variant(args, kwargs)}"
                st = tracer._stat(label)
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [0, sid, label, [0] * len(leaf_names)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                if parent is not None:
                    parent[0] += d
                for name_, n in zip(leaf_names, frame[3]):
                    if n:
                        key = (label, name_)
                        by_parent[key] = by_parent.get(key, 0) + n
                if len(spans) < tracer.max_spans:
                    spans.append((sid, label, t0, t1,
                                  -1 if parent is None else parent[1],
                                  tracer.op))
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot function that calls nothing traced: totals only.
        Calls per parent are counted in the parent's frame and folded into
        ``by_parent`` when the parent span closes."""
        stack = self.stack
        clock = time.perf_counter_ns
        st = self._stat(name)
        slot = len(self._leaf_names)
        self._leaf_names.append(name)

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            d = clock() - t0
            st[0] += 1
            st[1] += d
            st[2] += d
            if stack:
                frame = stack[-1]
                frame[0] += d
                frame[3][slot] += 1
            return result

        return wrapper

    def patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr), wrapper))

    @contextlib.contextmanager
    def installed(self):
        """The wrappers replace the module attributes for the with-block."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def begin_op(self, op: int) -> None:
        """Zero the per-op totals; span records persist across ops."""
        self.op = op
        for st in self.stats.values():
            st[:] = [0, 0, 0]
        self.counters.clear()
        self.by_parent.clear()

    def snapshot(self) -> dict:
        return {"stats": {k: tuple(v) for k, v in self.stats.items()},
                "counters": dict(self.counters),
                "by_parent": dict(self.by_parent)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"dropped": self.dropped}) + "\n")
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent,
                                     "op": op}) + "\n")
