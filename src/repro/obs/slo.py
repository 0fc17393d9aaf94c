"""Declarative SLOs evaluated over multi-window burn rates.

"SoK: The Faults in our Graph Benchmarks" (PAPERS.md) shows how
unattributed aggregate numbers mislead; an SLO turns "the service felt
slow" into a falsifiable statement — *99% of queries complete under
250ms* — and a burn rate says how fast the error budget is being
spent right now.

Spec literals (validated statically by the CFG006 analysis rule)::

    latency:query<250ms@0.99     # 99% of query requests under 250ms
    errors:*@0.999               # 99.9% of all requests succeed

Grammar: ``latency:OP<THRESHOLDms@TARGET`` or ``errors:OP@TARGET``
where ``OP`` is a serve request op (or ``*`` for all), the threshold
is a positive millisecond count, and the target is a fraction in
(0, 1].

Evaluation follows the multi-window burn-rate discipline: the
:class:`SLOMonitor` keeps a bounded, timestamped event window per run
and computes, for each spec and each window (default 60s and 300s),

    ``burn_rate = bad_fraction / (1 - target)``

A burn of 1.0 spends the budget exactly at the sustainable rate;
``burning`` is flagged only when **every** window burns above the
threshold — the short window proves it is happening *now*, the long
window proves it is not a blip. Latency SLOs measure successful
requests only (a failed request has no meaningful latency); error
SLOs count every request.
"""

from __future__ import annotations

import math
import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.spec_literals import format_number

#: Serve request ops a spec may target (``*`` matches any op).
KNOWN_OPS = ("query", "mutate", "algorithm", "create", "delete", "*")

#: Default burn-rate windows, seconds: "is it happening now" and "is
#: it sustained".
DEFAULT_WINDOWS: tuple[float, ...] = (60.0, 300.0)

#: Schema tag on :meth:`SLOMonitor.evaluate` payloads.
SLO_SCHEMA = "repro.obs.slo/v1"

# Numbers may carry an exponent: ``render`` writes ``1e-05``.
_LATENCY = re.compile(
    r"^latency:(?P<op>[\w*]+)<(?P<threshold>[0-9.eE+-]+)ms"
    r"@(?P<target>[0-9.eE+-]+)$")
_ERRORS = re.compile(
    r"^errors:(?P<op>[\w*]+)@(?P<target>[0-9.eE+-]+)$")


@dataclass(frozen=True)
class SLOSpec:
    """One parsed service-level objective."""

    kind: str  # "latency" | "errors"
    op: str
    target: float
    threshold_ms: float | None = None

    def __post_init__(self):
        if self.kind not in ("latency", "errors"):
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; known: "
                f"['latency', 'errors']")
        if self.op not in KNOWN_OPS:
            raise ValueError(
                f"unknown SLO op {self.op!r}; known: "
                f"{list(KNOWN_OPS)}")
        if not 0.0 < self.target <= 1.0:
            raise ValueError(
                f"SLO target {self.target} must be in (0, 1]")
        if self.kind == "latency":
            if (self.threshold_ms is None
                    or not 0 < self.threshold_ms < math.inf):
                raise ValueError(
                    f"latency SLO threshold {self.threshold_ms!r} "
                    f"must be > 0 ms and finite")
        elif self.threshold_ms is not None:
            raise ValueError("errors SLO takes no latency threshold")

    @classmethod
    def parse(cls, text: str) -> "SLOSpec":
        """Parse a spec literal; malformed grammar, unknown ops,
        non-positive thresholds, and out-of-range targets are
        :class:`ValueError` (the CFG006 pre-flight surface)."""
        compact = text.strip()
        match = _LATENCY.match(compact)
        if match:
            return cls(kind="latency", op=match["op"],
                       threshold_ms=float(match["threshold"]),
                       target=float(match["target"]))
        match = _ERRORS.match(compact)
        if match:
            return cls(kind="errors", op=match["op"],
                       target=float(match["target"]))
        raise ValueError(
            f"bad SLO spec {text!r}: expected "
            f"'latency:OP<Nms@T' or 'errors:OP@T'")

    def render(self) -> str:
        """The canonical literal form (parse round-trips it)."""
        target = format_number(self.target)
        if self.kind == "latency":
            threshold = format_number(self.threshold_ms)
            return f"latency:{self.op}<{threshold}ms@{target}"
        return f"errors:{self.op}@{target}"

    def matches(self, op: str) -> bool:
        return self.op == "*" or self.op == op

    def is_bad(self, latency_ms: float, error: bool) -> bool | None:
        """Whether one event violates this SLO; None when the event
        does not count toward it (failed requests for latency SLOs)."""
        if self.kind == "errors":
            return error
        if error:
            return None
        return latency_ms > self.threshold_ms


def parse_specs(specs: Iterable["SLOSpec | str"]) -> list[SLOSpec]:
    """Normalize a mixed list of literals/specs, preserving order."""
    return [spec if isinstance(spec, SLOSpec) else SLOSpec.parse(spec)
            for spec in specs]


def _window_verdict(spec: SLOSpec,
                    events: Iterable[tuple[float, bool]],
                    window_s: float) -> dict[str, Any]:
    """One spec over one window's (latency_ms, error) events."""
    total = bad = 0
    for latency_ms, error in events:
        verdict = spec.is_bad(latency_ms, error)
        if verdict is None:
            continue
        total += 1
        bad += bool(verdict)
    budget = 1.0 - spec.target
    bad_rate = bad / total if total else 0.0
    if budget > 0.0:
        burn = bad_rate / budget
    else:
        # target == 1.0: zero budget; any violation is infinite burn,
        # reported as None (JSON has no inf) with met=False.
        burn = None if bad else 0.0
    return {
        "window_s": window_s,
        "events": total,
        "bad": bad,
        "compliance": round(1.0 - bad_rate, 6),
        "burn_rate": (round(burn, 4)
                      if burn is not None else None),
        "met": bad_rate <= budget + 1e-12,
    }


class SLOMonitor:
    """Rolling SLO evaluation over a bounded event window.

    ``clock`` is injectable (tests step a fake clock through window
    boundaries); events older than the longest window are pruned on
    every record, and ``max_events`` hard-bounds memory under traffic
    faster than the prune horizon.
    """

    def __init__(self, specs: Sequence[SLOSpec | str] = (), *,
                 windows: Sequence[float] = DEFAULT_WINDOWS,
                 burn_threshold: float = 1.0,
                 max_events: int = 8192,
                 clock: Callable[[], float] = time.monotonic):
        if not windows or any(w <= 0 for w in windows):
            raise ValueError("windows must be positive")
        self.specs = parse_specs(specs)
        self.windows = tuple(sorted(windows))
        self.burn_threshold = burn_threshold
        self.max_events = max_events
        self._clock = clock
        self._lock = threading.Lock()
        # (t, op, latency_ms, error)
        self._events: deque[tuple[float, str, float, bool]] = deque(
            maxlen=max_events)
        self.recorded = 0

    def record(self, op: str, latency_ms: float, *,
               error: bool = False) -> None:
        now = self._clock()
        horizon = now - self.windows[-1]
        with self._lock:
            self.recorded += 1
            self._events.append((now, op, latency_ms, error))
            while self._events and self._events[0][0] < horizon:
                self._events.popleft()

    def evaluate(self, now: float | None = None) -> dict[str, Any]:
        """Every spec against every window, plus the burning flag."""
        if now is None:
            now = self._clock()
        with self._lock:
            events = list(self._events)
        results = []
        for spec in self.specs:
            matching = [(latency, error)
                        for _t, op, latency, error in events
                        if spec.matches(op)]
            windows = []
            for window_s in self.windows:
                cutoff = now - window_s
                in_window = [(latency, error)
                             for t, op, latency, error in events
                             if t >= cutoff and spec.matches(op)]
                windows.append(
                    _window_verdict(spec, in_window, window_s))
            # Multi-window rule: every window must be burning (and
            # have seen traffic) before the alarm trips.
            burning = bool(windows) and all(
                w["events"] > 0
                and (w["burn_rate"] is None
                     or w["burn_rate"] >= self.burn_threshold)
                and not w["met"]
                for w in windows)
            results.append({
                "spec": spec.render(),
                "kind": spec.kind,
                "op": spec.op,
                "threshold_ms": spec.threshold_ms,
                "target": spec.target,
                "events": len(matching),
                "windows": windows,
                "burning": burning,
            })
        return {
            "schema": SLO_SCHEMA,
            "burn_threshold": self.burn_threshold,
            "windows_s": list(self.windows),
            "recorded": self.recorded,
            "slos": results,
        }

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {"recorded": self.recorded,
                    "window_events": len(self._events),
                    "specs": [spec.render() for spec in self.specs]}


def evaluate_samples(
    specs: Sequence[SLOSpec | str],
    samples: Iterable[tuple[str, float, bool]],
) -> list[dict[str, Any]]:
    """One-shot compliance over a closed sample set — the per-run SLO
    report :mod:`repro.serve.traffic` prints (no windows: a finite run
    is its own window). ``samples`` are (op, latency_ms, error)."""
    parsed = parse_specs(specs)
    samples = list(samples)
    rows = []
    for spec in parsed:
        matching = [(latency, error)
                    for op, latency, error in samples
                    if spec.matches(op)]
        verdict = _window_verdict(spec, matching, 0.0)
        verdict.pop("window_s")
        rows.append({"spec": spec.render(), **verdict})
    return rows
