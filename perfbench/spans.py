"""The benchmark's own span recorder.

It belongs to the benchmark, not to :mod:`repro.obs`, so a change to
the program cannot change the instrument that judges it. Spans are
kept in memory and written once, at the end of a run. A span records
its name, start, end, parent and the trace id of the operation it
belongs to; one trace id is minted per benchmark operation.

Calls into the program are measured from outside by replacing a
module, class or instance attribute with a wrapper for the duration of
a traced block (:meth:`SpanRecorder.wrapped`). Calls that the program
makes through a local name bound at import time cannot be reached this
way and stay unmeasured.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from perfbench.stats import median, self_time

_MISSING = object()


@dataclass
class Span:
    span_id: int
    name: str
    trace_id: str
    parent_id: int | None
    start: float
    end: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._next_trace = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # Thread-local, so no lock: each thread has its own stack.
            stack = self._local.stack = []  # repro: ignore[RACE001]
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span; the outermost span of a thread starts a new
        trace."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            if stack:
                trace_id = stack[-1].trace_id
            else:
                trace_id = f"t{self._next_trace}"
                self._next_trace += 1
        sp = Span(span_id, name, trace_id,
                  stack[-1].span_id if stack else None,
                  time.perf_counter())
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def wrapped(self, targets: list[tuple[Any, str, str]]
                ) -> Iterator[None]:
        """Wrap ``getattr(owner, attr)`` as span ``name`` for each
        ``(owner, attr, name)`` inside the block, then restore.

        A classmethod found on a class is rewrapped as a classmethod so
        callers that go through the class still bind it.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                raw = vars(owner).get(attr, _MISSING)
                if isinstance(raw, classmethod):
                    replacement: Any = classmethod(
                        self._wrapper(name, raw.__func__))
                else:
                    replacement = self._wrapper(name,
                                                getattr(owner, attr))
                saved.append((owner, attr, raw))
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                if raw is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, raw)

    # -- analysis ---------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent_id is not None:
                kids.setdefault(sp.parent_id, []).append(sp)
        return kids

    def named(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def self_ms(self, sp: Span, kids: dict[int, list[Span]]) -> float:
        return self_time(sp.start, sp.end,
                         [(c.start, c.end)
                          for c in kids.get(sp.span_id, [])]) * 1000.0

    def median_ms(self, name: str) -> float:
        """Median duration of the spans called ``name`` (0 if none)."""
        durations = [sp.ms for sp in self.named(name)]
        return median(durations) if durations else 0.0

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for sp in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps({
                    "span_id": sp.span_id, "name": sp.name,
                    "trace_id": sp.trace_id, "parent_id": sp.parent_id,
                    "start": sp.start, "end": sp.end}) + "\n")
