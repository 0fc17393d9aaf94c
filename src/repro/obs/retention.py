"""Bounded trace retention: a ring buffer with tail-based keep rules.

A resident server cannot hold every request trace (the seed behaviour
— reset everything past a count — threw away exactly the traces worth
debugging), and it must not grow without bound either. This module
implements production-shaped retention:

* **head sampling** — ``sample_every=N`` keeps one in N ordinary
  traces *at ingest*, before any memory is spent;
* **ring buffer** — ordinary traces live in a fixed-capacity deque;
  the oldest is evicted when a new one arrives;
* **tail keep rules** — error traces go to their own bounded buffer
  regardless of sampling, and the slowest traces seen so far are held
  in a bounded min-heap (a new trace slower than the heap's fastest
  member replaces it), so the interesting tail survives ring churn;
* **visible loss** — kept/sampled-out/evicted counters reconcile
  exactly (``ingested == kept + sampled_out``;
  ``retained == kept - evicted``), and are mirrored into the obs
  metrics registry as ``obs.traces.*`` so ``/metrics`` shows drop
  rates.

The store holds the only long-lived references to request
:class:`~repro.obs.spans.Span` trees: the tracer itself retains
nothing (it hands each finished span to its subscribers and forgets
it), so a resident server's trace memory is bounded by its
:class:`RetentionPolicy` alone. A request root that no buffer keeps
becomes garbage as soon as the request returns.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import get_registry
from repro.obs.spans import Span, is_enabled


@dataclass(frozen=True)
class RetentionPolicy:
    """How much of each trace class to keep.

    ``capacity`` bounds the ordinary-trace ring, ``error_capacity``
    and ``slow_capacity`` bound the tail buffers, and ``sample_every``
    head-samples ordinary traffic (1 = keep everything the ring can
    hold). Tail rules ignore head sampling on purpose: an error trace
    is kept even when its head sample would have dropped it.
    """

    capacity: int = 256
    error_capacity: int = 64
    slow_capacity: int = 64
    sample_every: int = 1

    def __post_init__(self):
        for name in ("capacity", "error_capacity", "slow_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


class TraceStore:
    """Bounded, indexed storage for finished request-trace roots."""

    def __init__(self, policy: RetentionPolicy | None = None):
        self.policy = policy or RetentionPolicy()
        self._lock = threading.Lock()
        self._ring: deque[Span] = deque()
        self._errors: deque[Span] = deque()
        # (duration_ms, tiebreak, span): a min-heap whose root is the
        # *fastest* retained slow trace — the replacement candidate.
        self._slow: list[tuple[float, int, Span]] = []
        self._tiebreak = itertools.count()
        # trace_id -> retained root. A span can sit in several buffers
        # at once; _refs counts memberships so the index entry drops
        # only when the last buffer lets go.
        self._index: dict[str, Span] = {}
        self._refs: dict[int, int] = {}
        self.ingested = 0
        self.kept = 0
        self.sampled_out = 0
        self.evicted = 0
        self.errors_kept = 0
        self.slow_kept = 0

    # -- internal bookkeeping (lock held) --------------------------------

    def _retain(self, root: Span) -> None:
        self._refs[root.span_id] = self._refs.get(root.span_id, 0) + 1
        trace_id = root.attributes.get("trace_id")
        if trace_id is not None:
            self._index[trace_id] = root

    def _release(self, root: Span) -> None:
        remaining = self._refs.get(root.span_id, 0) - 1
        if remaining > 0:
            self._refs[root.span_id] = remaining
            return
        self._refs.pop(root.span_id, None)
        self.evicted += 1
        trace_id = root.attributes.get("trace_id")
        if trace_id is not None and \
                self._index.get(trace_id) is root:
            del self._index[trace_id]

    # -- ingest ----------------------------------------------------------

    def ingest(self, root: Span, *, error: bool = False) -> bool:
        """Offer one finished root span; returns whether any buffer
        kept it. Unclosed or non-root spans are rejected (the trace
        tree under a root is only complete once the root closed)."""
        if not isinstance(root, Span) or not root.closed \
                or root.parent is not None:
            return False
        error = error or "error" in root.attributes
        duration = root.duration_ms
        policy = self.policy
        with self._lock:
            self.ingested += 1
            retained = False

            if error:
                self._errors.append(root)
                self._retain(root)
                self.errors_kept += 1
                retained = True
                if len(self._errors) > policy.error_capacity:
                    self._release(self._errors.popleft())

            # Slowest-tail keep: admit while below capacity, then
            # displace the fastest retained slow trace.
            if len(self._slow) < policy.slow_capacity:
                heapq.heappush(self._slow,
                               (duration, next(self._tiebreak), root))
                self._retain(root)
                self.slow_kept += 1
                retained = True
            elif duration > self._slow[0][0]:
                _, _, displaced = heapq.heapreplace(
                    self._slow,
                    (duration, next(self._tiebreak), root))
                self._retain(root)
                self._release(displaced)
                self.slow_kept += 1
                retained = True

            if not retained and policy.sample_every > 1 and \
                    (self.ingested - 1) % policy.sample_every != 0:
                self.sampled_out += 1
            else:
                self._ring.append(root)
                self._retain(root)
                retained = True
                if len(self._ring) > policy.capacity:
                    self._release(self._ring.popleft())

            if retained:
                self.kept += 1
        if is_enabled():
            registry = get_registry()
            registry.inc("obs.traces.ingested")
            if retained:
                registry.inc("obs.traces.kept")
            else:
                registry.inc("obs.traces.sampled_out")
            registry.set_gauge("obs.traces.retained", self.retained)
        return retained

    # -- lookup ----------------------------------------------------------

    def get(self, trace_id: str) -> Span | None:
        with self._lock:
            return self._index.get(trace_id)

    @property
    def retained(self) -> int:
        """Distinct trace roots currently held across all buffers."""
        return len(self._refs)

    def summaries(self, limit: int = 50) -> list[dict[str, Any]]:
        """Newest-first one-line digests of the retained ring +
        error-tail traces (the ops-console listing)."""
        with self._lock:
            seen: set[int] = set()
            rows: list[dict[str, Any]] = []
            for root in itertools.chain(reversed(self._ring),
                                        reversed(self._errors)):
                if root.span_id in seen:
                    continue
                seen.add(root.span_id)
                rows.append({
                    "trace_id": root.attributes.get("trace_id"),
                    "name": root.name,
                    "op": root.attributes.get("op"),
                    "duration_ms": round(root.duration_ms, 3),
                    "error": root.attributes.get("error"),
                    "spans": sum(1 for _ in root.walk()),
                })
                if len(rows) >= limit:
                    break
            return rows

    def stats(self) -> dict[str, Any]:
        """Counter snapshot; ``ingested == kept + sampled_out`` and
        ``retained == kept - evicted`` always hold."""
        with self._lock:
            return {
                "ingested": self.ingested,
                "kept": self.kept,
                "sampled_out": self.sampled_out,
                "evicted": self.evicted,
                "retained": len(self._refs),
                "errors_kept": self.errors_kept,
                "slow_kept": self.slow_kept,
                "ring": len(self._ring),
                "errors": len(self._errors),
                "slow": len(self._slow),
                "policy": {
                    "capacity": self.policy.capacity,
                    "error_capacity": self.policy.error_capacity,
                    "slow_capacity": self.policy.slow_capacity,
                    "sample_every": self.policy.sample_every,
                },
            }

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._errors.clear()
            self._slow.clear()
            self._index.clear()
            self._refs.clear()
