"""Nestable, thread-safe tracing spans.

Section 6.2 lists "profiling and debugging slow queries" and visibility
into long-running computations among users' top challenges. This module
is the tracing half of the answer: a span marks one timed region of
work (a query execution, a Pregel superstep, a graph-database
transaction), carries arbitrary attributes, and nests -- a span opened
while another is active becomes its child, so a workload run yields a
tree showing where the time went.

Design constraints:

* **disabled by default, zero overhead when off** -- :func:`span`
  returns the shared :data:`NULL_SPAN` singleton when tracing is
  disabled, so hot paths allocate nothing;
* **thread-safe** -- the active-span stack is thread-local (each thread
  grows its own subtree) and the collector is locked;
* **consumable as events** -- finished spans are pushed to subscribers,
  which is how :mod:`repro.dgps.debugger` observes supersteps without a
  private hook format;
* **no hidden retention** -- the tracer keeps no finished spans;
  :func:`capture` collects the roots of one block, and a resident
  server keeps only what its retention policy admits.

Usage::

    from repro.obs import capture, span

    with capture() as trace:
        with span("pregel.superstep", superstep=3) as sp:
            ...
            sp.set("messages_sent", 128)
    roots = trace.roots
"""

from __future__ import annotations

import itertools
import threading
import time
from contextvars import ContextVar
from typing import Any, Callable, Iterator

#: The ambient trace id (see :mod:`repro.obs.trace_context`). A
#: ContextVar rather than a thread-local so the id survives
#: generator/contextmanager suspension within a request; every *real*
#: span opened while it is set records it as a ``trace_id`` attribute.
#: The NULL_SPAN path never reads it, so tracing-off stays free.
_TRACE_ID: ContextVar[str | None] = ContextVar(
    "repro_trace_id", default=None)

#: The ambient request deadline (see :mod:`repro.obs.deadline`), bound
#: beside the trace id. Every *real* span opened while it is set stamps
#: ``deadline_remaining_ms`` at entry, so a finished trace shows the
#: budget draining through serve -> query/pregel -> dist worker spans.
#: The NULL_SPAN path never reads it, so tracing-off stays free.
_DEADLINE: ContextVar[Any] = ContextVar(
    "repro_deadline", default=None)


class _ThreadState(threading.local):
    """Per-thread stack of currently open spans."""

    def __init__(self):
        self.stack: list["Span"] = []


_STATE = _ThreadState()
_IDS = itertools.count(1)


class Span:
    """One timed, attributed region of work.

    Use as a context manager; entering links the span under the
    thread's innermost open span, exiting records the end time and
    hands the span to the :class:`Tracer`.
    """

    __slots__ = ("name", "attributes", "span_id", "parent", "children",
                 "start_ns", "end_ns", "_prof")

    def __init__(self, name: str, attributes: dict[str, Any] | None = None):
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.span_id = next(_IDS)
        self.parent: Span | None = None
        self.children: list[Span] = []
        self.start_ns: int | None = None
        self.end_ns: int | None = None
        self._prof: list | None = None  # scratch for repro.obs.profile

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Span":
        stack = _STATE.stack
        if stack:
            self.parent = stack[-1]
            self.parent.children.append(self)
        stack.append(self)
        trace_id = _TRACE_ID.get()
        if trace_id is not None and "trace_id" not in self.attributes:
            self.attributes["trace_id"] = trace_id
        deadline = _DEADLINE.get()
        if deadline is not None and \
                "deadline_remaining_ms" not in self.attributes:
            self.attributes["deadline_remaining_ms"] = round(
                deadline.remaining_ms(), 3)
        profiler = _PROFILER
        if profiler is not None:
            profiler._on_enter(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = time.perf_counter_ns()
        profiler = _PROFILER
        if profiler is not None:
            profiler._on_exit(self)
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        stack = _STATE.stack
        if self in stack:
            # Normally the top of the stack; tolerate unbalanced exits
            # (e.g. a transaction span closed after an inner span leaked).
            stack.remove(self)
        _TRACER._record(self)
        return False

    # -- attributes ------------------------------------------------------

    def set(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __setitem__(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __getitem__(self, key: str) -> Any:
        return self.attributes[key]

    # -- introspection ---------------------------------------------------

    @property
    def duration_ms(self) -> float:
        if self.start_ns is None or self.end_ns is None:
            return 0.0
        return (self.end_ns - self.start_ns) / 1e6

    @property
    def closed(self) -> bool:
        return self.end_ns is not None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Descendant spans (including self) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"{self.duration_ms:.3f} ms, {self.attributes!r})")


class _NullSpan:
    """Shared no-op span returned by :func:`span` while tracing is off.

    Accepts the full :class:`Span` surface so instrumented code never
    branches; every method does nothing.
    """

    __slots__ = ()

    name = "null"
    attributes: dict[str, Any] = {}
    span_id = 0
    parent = None
    children: list[Span] = []
    start_ns = None
    end_ns = None
    duration_ms = 0.0
    closed = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def __setitem__(self, key: str, value: Any) -> None:
        pass

    def walk(self):
        return iter(())

    def find(self, name: str) -> list[Span]:
        return []

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()

#: The installed span profiler (see :mod:`repro.obs.profile`), or None.
#: Checked once per real-span enter/exit — the profiling-disabled path
#: costs one module-global read and a None test, and the tracing-off
#: path (NULL_SPAN) never consults it at all, preserving the PR-1
#: zero-overhead contract.
_PROFILER = None


def _set_profiler(profiler) -> None:
    """Install (or, with None, remove) the span profiler hook.

    Internal to :mod:`repro.obs.profile` — use
    :func:`repro.obs.profile.enable_profiling`."""
    global _PROFILER
    _PROFILER = profiler


class Tracer:
    """Process-wide span gate and fan-out.

    The tracer retains nothing: every finished span is handed to the
    current subscribers and then forgotten, so whatever collects spans
    (a :func:`capture` block, a serve :class:`~repro.obs.retention.
    TraceStore`) owns exactly the memory it decided to keep.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.enabled = False
        # Copy-on-write: subscribe/unsubscribe swap in a new tuple
        # under the lock, so _record reads it without locking.
        self._subscribers: tuple[Callable[[Span], None], ...] = ()

    def enable(self) -> None:
        with self._lock:
            self.enabled = True

    def disable(self) -> None:
        with self._lock:
            self.enabled = False

    def subscribe(self, listener: Callable[[Span], None]) -> None:
        with self._lock:
            self._subscribers = (*self._subscribers, listener)

    def unsubscribe(self, listener: Callable[[Span], None]) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
            if listener in subscribers:
                subscribers.remove(listener)
                self._subscribers = tuple(subscribers)

    def _record(self, finished: Span) -> None:
        for listener in self._subscribers:
            listener(finished)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def span(name: str, /, **attributes: Any) -> Span | _NullSpan:
    """Open a span if tracing is enabled; otherwise the no-op singleton.

    The gate is one attribute read, and the disabled path allocates no
    span object -- safe on hot paths.
    """
    if not _TRACER.enabled:
        return NULL_SPAN
    return Span(name, attributes)


def forced_span(name: str, /, **attributes: Any) -> Span:
    """Open a real span regardless of the global gate.

    Used where a live consumer is attached (e.g. the Pregel engine with
    a registered superstep listener): subscribers are still notified
    even while tracing is off.
    """
    return Span(name, attributes)


def current_span() -> Span | None:
    """The innermost open span on this thread, if any."""
    stack = _STATE.stack
    return stack[-1] if stack else None


def enable() -> None:
    _TRACER.enable()


def disable() -> None:
    _TRACER.disable()


def is_enabled() -> bool:
    return _TRACER.enabled


def subscribe(listener: Callable[[Span], None]) -> None:
    _TRACER.subscribe(listener)


def unsubscribe(listener: Callable[[Span], None]) -> None:
    _TRACER.unsubscribe(listener)


class _Capture:
    """Handle yielded by :func:`capture`: the root spans its listener
    collected, on whichever thread they finished."""

    def __init__(self):
        self._lock = threading.Lock()
        self._roots: list[Span] = []

    def _collect(self, finished: Span) -> None:
        if finished.parent is None:
            with self._lock:
                self._roots.append(finished)

    @property
    def roots(self) -> list[Span]:
        """Root spans finished inside the block, in completion order."""
        with self._lock:
            return list(self._roots)


class capture:
    """``with capture() as trace:`` -- temporarily enable tracing and
    expose the root spans finished inside the block as ``trace.roots``.

    The block subscribes its own collector and unsubscribes it on exit,
    so nested captures each see their own roots and nothing outside a
    capture keeps finished spans alive.
    """

    def __init__(self):
        self._previous = False
        self._handle: _Capture | None = None

    def __enter__(self) -> _Capture:
        self._previous = _TRACER.enabled
        self._handle = _Capture()
        _TRACER.subscribe(self._handle._collect)
        _TRACER.enable()
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TRACER.unsubscribe(self._handle._collect)
        if self._previous:
            _TRACER.enable()
        else:
            _TRACER.disable()
        return False
