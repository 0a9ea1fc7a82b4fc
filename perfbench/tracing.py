"""In-memory spans and the self-time arithmetic of the traced run.

A span is one timed call at a layer boundary: ``(trace, id, parent,
name, start, end)``.  Span names are ``<layer>.<call>`` after this
repo's modules (``rawlog.parse_batch``, ``fold.emit`` ...).  Spans stay
in memory; the benchmark writes them out once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans of one trace (single-threaded callers)."""

    def __init__(self, trace: str):
        self.trace = trace
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"trace": self.trace, "id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def iterate(self, name: str, iterable):
        """Yield from ``iterable`` with a span around each ``next()`` —
        lazy readers do their work there, not at construction."""
        it = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item


class NullTracer:
    """Tracing off: the same interface at the cost of a no-op."""

    @contextmanager
    def span(self, name: str):
        yield None

    def iterate(self, name: str, iterable):
        return iterable


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id → its duration minus the part its child spans cover.
    Children of one parent run one after another, so they never
    overlap and their durations add."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def busy_metric(span_name: str) -> str:
    """Span name → the per-layer busy-time metric it feeds.  The fold
    layer has two phases with a metric each (``fold.emit_busy_s``,
    ``fold.merge_busy_s``); every other layer has one."""
    layer, call = span_name.split(".", 1)
    return f"fold.{call}_busy_s" if layer == "fold" else f"{layer}.busy_s"


def layer_busy(spans: list[dict], root_id: int) -> dict[str, float]:
    """Sum self times per busy metric over the spans under ``root_id``
    (the root's own glue time belongs to no layer)."""
    st = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        if s["id"] == root_id:
            continue
        m = busy_metric(s["name"])
        out[m] = out.get(m, 0.0) + st[s["id"]]
    return out


def executor_overhead(ray_wall_s: float, busy: dict[str, float]) -> float:
    """The Ray-path wall time the in-process layer calls do not account
    for: scheduling, serialization, object transfer, worker start."""
    return ray_wall_s - sum(busy.values())
