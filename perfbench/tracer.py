"""Outside-in tracer: spans around ``agentcap``'s layer boundaries, recorded
from the benchmark's own code without editing the program.

``Tracer`` replaces each target attribute (a module function, or a method in
a class's own ``__dict__``) with a wrapper that records a span and puts the
original back on exit. A function imported by name into another module is a
separate binding, so it is listed once per namespace that holds it.

Spans are kept in memory as ``[op, id, parent, name, start, end, attrs]``
rows and written out once, when the run ends. Parents are tracked per thread;
a span opened on a thread with no open span (a worker of the capacity sweep's
thread pool) takes as parent the innermost open span of the thread that
started the op. ``self_times`` turns the rows into per-span self time: the
span's duration minus the union of its children's intervals, so overlapping
children on worker threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time


class Tracer:
    def __init__(self, targets):
        """``targets``: (owner, attribute, span name, attrs) tuples, where
        attrs(args, kwargs, result) returns a dict of counts or None."""
        self.targets = list(targets)
        self.spans: list[list] = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for owner, attr, name, attrs in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def begin_op(self, op) -> None:
        """Mark the start of one operation on the calling thread."""
        self.op = op
        self._root_stack = self._stack()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root_stack
                parent = root[-1] if root else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                # list.append is atomic under the interpreter lock
                tracer.spans.append([tracer.op, span_id, parent, name, start, end, extra])

        return wrapper


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of the child spans'
    intervals, each clipped to the parent's interval."""
    by_id = {s[1]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s[2])
        if parent is not None:
            lo, hi = max(s[4], parent[4]), min(s[5], parent[5])
            if hi > lo:
                children.setdefault(parent[1], []).append((lo, hi))
    return {
        sid: (s[5] - s[4]) - _union_length(children.get(sid, []))
        for sid, s in by_id.items()
    }


def ancestors(spans) -> dict[int, list[str]]:
    """Names of every span's ancestors, innermost first."""
    by_id = {s[1]: s for s in spans}
    out: dict[int, list[str]] = {}
    for s in spans:
        names = []
        parent = by_id.get(s[2])
        while parent is not None:
            names.append(parent[3])
            parent = by_id.get(parent[2])
        out[s[1]] = names
    return out
