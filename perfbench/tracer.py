"""Span tracer that times malgraph's layers from outside the program.

A target names the attribute a caller looks a function up by, such as
``malgraph.pipeline.forward``: ``pipeline.train`` calls ``forward`` through
its own module globals, so that is the attribute to replace.  Several
targets may feed one layer (``ir.parse_trace`` is looked up by both
``pipeline`` and ``cli``).

Each wrapped call records one span: layer name, start and end
(``perf_counter``), the calling thread's CPU time (``thread_time``), the
enclosing span, and counts taken from the call's arguments and result.  A
call made on a pool thread with no open span of its own gets the innermost
span open on the main thread as parent, which is the span blocked in
``pool.map`` waiting for it.

Spans stay in memory.  A target whose attribute does not exist, a layer that
is never called, and a counter that fails are reported under ``missing``,
never as zero, so a rename in the program cannot silently drop a layer.
"""

from __future__ import annotations

import importlib
import itertools
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    layer: str          # e.g. "sage.forward"
    module: str         # e.g. "malgraph.pipeline"
    attr: str           # e.g. "forward"
    counter: Callable | None = None   # (args, kwargs, result) -> dict


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = math.nan
    cpu: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.get_ident()
        self._patched: list[tuple] = []

    # -- patching ------------------------------------------------------------

    def install(self):
        """Replace every target attribute with a timing wrapper."""
        for t in self.targets:
            module = importlib.import_module(t.module)
            original = getattr(module, t.attr, None)
            if not callable(original):
                self.missing[f"{t.module}.{t.attr}"] = (
                    f"wrap target for layer {t.layer} not found")
                continue
            setattr(module, t.attr, self._wrap(t, original))
            self._patched.append((module, t.attr, original))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.get_ident() == self._main_thread
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            outer = self._main_stack[-1:]   # the span blocked on this pool thread
            parent = outer[0].id if outer else None
        span = Span(next(self._ids), name, parent, threading.get_ident(),
                    time.perf_counter())
        span.cpu = -time.thread_time()
        stack.append(span)
        return span

    def close(self, span: Span):
        span.cpu += time.thread_time()
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, target: Target, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(target.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if target.counter is not None:
                try:
                    span.counts = target.counter(args, kwargs, result)
                except Exception as e:   # a changed signature must not stop the run
                    tracer.missing[f"{target.layer} counts"] = (
                        f"counter failed: {type(e).__name__}: {e}")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self) -> list[Span]:
        """The spans recorded since the last call, in order of closing."""
        spans, self.spans = self.spans, []
        return spans


# -- statistics -----------------------------------------------------------------

def percentile(values, q: float):
    """Nearest-rank q-th percentile as (value, sample count), or None.

    A percentile is reported only when at least ten samples lie beyond it,
    so p50 needs 20 samples and p90 needs 100.
    """
    values = sorted(values)
    n = len(values)
    if n == 0 or n - math.ceil(q / 100 * n) < 10:
        return None
    return values[math.ceil(q / 100 * n) - 1], n


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_totals(spans) -> dict:
    """Per layer: calls, wall, cpu, self time and summed counts of one group.

    Self time is a span's duration minus the part of it its child spans
    cover; children on pool threads overlap, so their union is taken.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0,
                                      "self_s": 0.0, "counts": {}})
        row["calls"] += 1
        row["wall_s"] += s.wall
        row["cpu_s"] += s.cpu
        inside = [(max(c.start, s.start), min(c.end, s.end))
                  for c in children.get(s.id, ())]
        row["self_s"] += s.wall - covered(inside)
        for key, value in s.counts.items():
            if isinstance(value, (int, float)):
                row["counts"][key] = row["counts"].get(key, 0) + value
    for row in out.values():
        row["wait_s"] = row["wall_s"] - row["cpu_s"]
    return out


def median_of(groups, layer: str, key: str):
    """Median over groups of one layer's total; None if no group called it."""
    values = []
    for totals in groups:
        row = totals.get(layer)
        if row is None:
            continue
        value = row.get(key, row["counts"].get(key))
        if value is not None:
            values.append(value)
    return statistics.median(values) if values else None
