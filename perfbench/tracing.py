"""Span recording around calls into the simulator's layers.

The benchmark wraps each call it makes into a layer's public function
in a span (name, start, end, parent, run id).  Spans stay in memory
while the benchmark runs and are written out once at the end.  A
layer's *self time* is its span's duration minus the part of that
interval its direct child spans cover, so nested layers are never
counted twice.

Untraced passes use :data:`NULL_TRACER`, whose ``span`` returns one
shared no-op context manager, so end-to-end timings carry no recording
cost.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    """One timed call.  Times are ``time.perf_counter()`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class _OpenSpan:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_OpenSpan":
        tracer = self.tracer
        self.id = next(tracer._ids)
        self.parent = tracer._stack[-1].id if tracer._stack else None
        tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans.append(
            Span(self.id, self.name, self.start, end, self.parent,
                 tracer.run_id)
        )


class Tracer:
    """Records nested spans of one benchmark run."""

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[_OpenSpan] = []
        self._ids = itertools.count()

    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)


class _NullTracer:
    enabled = False
    spans: list[Span] = []
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = _NullTracer()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the union of its direct
    children's intervals, each clipped to the span itself; overlapping
    children are counted once and zero-length spans contribute nothing.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[str, float] = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
            if c.end > span.start and c.start < span.end
        ]
        own = (span.end - span.start) - _covered(clipped)
        out[span.name] = out.get(span.name, 0.0) + max(0.0, own)
    return out


def write_spans(spans: list[Span], path: Path) -> None:
    """Write ``spans`` as JSON lines (one span per line)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for span in spans:
            f.write(json.dumps(asdict(span)) + "\n")
