"""A small span recorder, kept in memory and written once at the end.

A span has a name, a start and an end (perf_counter seconds), the id of the
span that caused it, a trace id (one per pipeline stage) and the counts
recorded at its boundary. Parents come from a per-thread stack; a span
opened on a thread with an empty stack (a worker of a thread pool) gets the
open stage span as its parent.

Functions called tens of thousands of times get a running sum per name
(`add`) instead of a span per call, which would cost more than the call.

A recorder made with `enabled=False` keeps only stage spans, so the same
code path measured with and without inner spans gives the tracing overhead.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    trace_id: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.sums: dict[str, float] = {}
        self._stage: Span | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def _record(self, name: str, stage: bool):
        stack = self._stack()
        parent = None if stage else stack[-1] if stack else self._stage
        with self._lock:
            span_id = next(self._ids)
        span = Span(id=span_id, name=name,
                    trace_id=parent.trace_id if parent else name,
                    parent=parent.id if parent else None, start=time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def stage(self, name: str):
        """A top-level span that starts its own trace; always recorded."""
        with self._record(name, stage=True) as span:
            self._stage = span
            try:
                yield span
            finally:
                self._stage = None

    @contextmanager
    def span(self, name: str):
        """An inner span; a no-op (yielding a scratch Span) when disabled."""
        if not self.enabled:
            yield Span(id=0, name=name, trace_id="", parent=None, start=0.0)
            return
        with self._record(name, stage=False) as span:
            yield span

    def add(self, name: str, seconds: float) -> None:
        """Add one call's time to the running sum `name`."""
        with self._lock:
            self.sums[name] = self.sums.get(name, 0.0) + seconds

    # -- queries ------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name)) + self.sums.get(name, 0.0)

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.named(name))

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part of it its children cover."""
        children = sorted((max(c.start, span.start), min(c.end, span.end))
                          for c in self.spans if c.parent == span.id)
        covered, reach = 0.0, span.start
        for lo, hi in children:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered

    def self_total(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))

    def write(self, path: Path) -> None:
        doc = {"spans": [asdict(s) for s in self.spans], "sums": self.sums}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
