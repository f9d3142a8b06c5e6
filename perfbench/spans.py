"""In-memory spans around the benchmark's calls into each layer.

A span has a name (``layer.call``), start and end (``perf_counter``
seconds), the index of the span that encloses it, and an optional
request id. Spans stay in a list and are written out when the run ends.
The timing itself is always taken, because the untraced run needs the
same stage durations; only the bookkeeping is skipped when tracing is
off.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid")

    def __init__(self, name, parent, rid):
        self.name = name
        self.parent = parent
        self.rid = rid
        self.start = 0.0
        self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans when ``enabled``; always times."""

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rid=None):
        parent = self._stack[-1] if self._stack else -1
        item = Span(name, parent, rid)
        if self.enabled:
            self._stack.append(len(self.spans))
            self.spans.append(item)
        item.start = time.perf_counter()
        try:
            yield item
        finally:
            item.end = time.perf_counter()
            if self.enabled:
                self._stack.pop()

    def record(self, name: str, start: float, end: float, rid=None) -> None:
        """Add a finished span under the innermost open one (async requests)."""
        if self.enabled:
            item = Span(name, self._stack[-1] if self._stack else -1, rid)
            item.start, item.end = start, end
            self.spans.append(item)

    def adopt(self, rows) -> None:
        """Add spans recorded in another process on this machine.

        ``perf_counter`` reads one monotonic clock in every process, so
        the times need no shift. A foreign root span is attached to the
        innermost local span that encloses it in time.
        """
        if not self.enabled:
            return
        base = len(self.spans)
        local = [i for i, s in enumerate(self.spans) if s.rid is None]
        for name, start, end, parent, rid in rows:
            if parent < 0:
                enclosing = [i for i in local if self.spans[i].start <= start and end <= self.spans[i].end]
                parent = max(enclosing, key=lambda i: self.spans[i].start, default=-1)
            else:
                parent += base
            item = Span(name, parent, rid)
            item.start, item.end = start, end
            self.spans.append(item)

    def rows(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.rid] for s in self.spans]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "rid"], "spans": self.rows()}, fh)


def _union_seconds(intervals) -> float:
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


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per layer: time covered by its spans minus time covered by their children.

    Overlapping spans of one layer (concurrent requests) count once, so a
    layer's self time never exceeds the wall time it was active.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    by_layer: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_layer.setdefault(s.layer, []).append(i)
    out = {}
    for layer, members in by_layer.items():
        own = _union_seconds((spans[i].start, spans[i].end) for i in members)
        inner = _union_seconds(
            (spans[c].start, spans[c].end)
            for i in members
            for c in children.get(i, ())
            if spans[c].layer != layer
        )
        out[layer] = own - inner
    return out


def span_cost_seconds(samples: int = 20_000) -> float:
    """Measured cost of one recorded span (enter + exit) on this machine."""
    tracer = Tracer(True)
    start = time.perf_counter()
    for __ in range(samples):
        with tracer.span("calibrate.span"):
            pass
    return (time.perf_counter() - start) / samples
