"""In-memory span recorder for the benchmark's traced run.

A span has a name, a start and an end (``time.perf_counter`` seconds),
the id of the span that was open when it started, and the id of the
iteration it belongs to. Spans stay in memory until the run ends.

``Recorder.patch`` replaces a function or method where its caller looks
it up (``protocol.train_ensemble``, ``baseline.pool_features``, ...), so
a wrapped function called from inside another wrapped one nests under
it. ``Recorder.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.iteration = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # Spans opened on a worker thread (the socket transport queries
        # its peers from a thread pool) hang under the innermost span of
        # the thread that created the recorder.
        self._main_stack: list[int] = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict becomes its attributes."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            opened = tuple(self._main_stack)
            parent = opened[-1] if opened else None
        span_id = next(self._ids)
        attrs: dict = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, self.iteration, attrs)
            with self._lock:
                self.spans.append(span)

    def patch(self, owner, attr: str, name: str, call=None) -> None:
        """Wrap ``owner.attr`` in a span called ``name``.

        ``call(original, args, kwargs, attrs)`` runs the original and may
        add span attributes; by default the original is called as is.
        An attribute ``owner`` does not define itself is an error, so that
        a renamed layer function fails the traced run instead of reading 0.
        """
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} defines no {attr!r} to trace")
        raw = vars(owner)[attr]
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name) as attrs:
                if call is None:
                    return original(*args, **kwargs)
                return call(original, args, kwargs, attrs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover.

    Children may overlap (worker threads), so their union is subtracted.
    """
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, reach)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return span.duration - covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {s.span_id: self_time(s, children.get(s.span_id, [])) for s in spans}


def span_table(spans: list[Span]) -> dict[str, dict]:
    """Count, total time and self time per span name."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[span.span_id]
    return table
