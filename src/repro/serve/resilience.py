"""Per-operation circuit breakers for the service layer.

The survey's operational chapter is blunt: failures cascade. One bad
dependency (a runner that started erroring, a graph whose queries
time out) keeps consuming handler slots, queue capacity, and client
retries long after it stopped returning anything useful. A circuit
breaker turns that into a measured, bounded degradation:

* **closed** — requests flow; the last :attr:`BreakerConfig.window`
  outcomes form a sliding window, and once at least
  :attr:`BreakerConfig.min_requests` of them are present with an
  error rate at or above :attr:`BreakerConfig.threshold`, the breaker
  trips **open**;
* **open** — requests are refused up front
  (:class:`~repro.serve.errors.BreakerOpen`, HTTP 503 with
  ``Retry-After``) for :attr:`BreakerConfig.cooldown_s` seconds.
  The service degrades instead of failing where it can: queries may
  be answered from superseded cache entries, marked ``"stale": true``
  (see :meth:`~repro.serve.cache.QueryCache.get_stale`);
* **half-open** — after the cooldown, up to
  :attr:`BreakerConfig.probes` live probe requests are admitted. Any
  probe failure re-opens the breaker; that many successes close it
  and clear the window.

Only *server* faults (mapped status >= 500 — injected faults, deadline
overruns, crashes) count toward the error rate. Client mistakes (4xx)
and the breaker's own sheds never feed the window, so a breaker cannot
keep itself open.

The clock is injectable (``clock=``, monotonic by default) exactly
like :class:`~repro.obs.slo.SLOMonitor`, so tests drive the full
closed -> open -> half-open -> closed cycle deterministically. Config
literals (``"window=20,threshold=0.5,..."``) are validated by the
CFG007 analysis rule the way CFG005/CFG006 validate traffic mixes and
SLO specs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, fields
from typing import Any, Callable

from repro.obs import get_registry, is_enabled
from repro.serve.errors import BreakerOpen
from repro.spec_literals import format_number, parse_pairs

#: Breaker states (plain strings: they appear verbatim in stats
#: payloads, chaos reports, and test assertions).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: The service default: trip on a majority of errors over the last 20
#: outcomes, probe twice after five seconds.
DEFAULT_BREAKER = ("window=20,threshold=0.5,min_requests=5,"
                   "probes=2,cooldown_s=5")

@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs for one :class:`CircuitBreaker` (validated)."""

    window: int = 20
    threshold: float = 0.5
    min_requests: int = 5
    probes: int = 2
    cooldown_s: float = 5.0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(
                f"window must be >= 1, got {self.window}")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {self.threshold}")
        if not 1 <= self.min_requests <= self.window:
            raise ValueError(
                f"min_requests must be in [1, window={self.window}], "
                f"got {self.min_requests}")
        if self.probes < 1:
            raise ValueError(
                f"probes must be >= 1, got {self.probes}")
        if self.cooldown_s <= 0:
            raise ValueError(
                f"cooldown_s must be > 0, got {self.cooldown_s}")

    @classmethod
    def parse(cls, spec: str) -> "BreakerConfig":
        """Parse a ``key=value,key=value`` literal.

        Unknown or repeated keys and non-numeric values raise
        :class:`ValueError` with the offending token, so the CFG007
        rule (and a 400 at the serve edge) can point at the exact
        mistake.
        """
        # Each key converts like its default: ``int`` or ``float``.
        return cls(**parse_pairs(
            spec, {f.name: type(f.default) for f in fields(cls)},
            what="breaker config key"))

    def render(self) -> str:
        """The canonical literal this config round-trips through."""
        return (f"window={self.window},"
                f"threshold={format_number(self.threshold)},"
                f"min_requests={self.min_requests},"
                f"probes={self.probes},"
                f"cooldown_s={format_number(self.cooldown_s)}")


class CircuitBreaker:
    """One operation's breaker: sliding-window trip, timed half-open
    probes, recorded transitions."""

    def __init__(self, op: str, config: BreakerConfig, *,
                 clock: Callable[[], float] = time.monotonic):
        self.op = op
        self.config = config
        self._clock = clock
        self._lock = threading.Lock()
        self.state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=config.window)
        self._opened_at: float | None = None
        self._probes_issued = 0
        self._probes_ok = 0
        self.short_circuits = 0
        #: Every state change: {"op", "from", "to", "reason", "at"}.
        self.transitions: list[dict[str, Any]] = []

    # -- internals (call with the lock held) ---------------------------

    def _error_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def _transition(self, to: str, reason: str) -> None:
        entry = {"op": self.op, "from": self.state, "to": to,
                 "reason": reason, "at": self._clock()}
        self.transitions.append(entry)
        self.state = to
        if is_enabled():
            get_registry().inc(f"serve.breaker.{to}")

    def _trip(self, reason: str) -> None:
        self._transition(OPEN, reason)
        self._opened_at = self._clock()
        self._probes_issued = 0
        self._probes_ok = 0

    def _close(self, reason: str) -> None:
        self._transition(CLOSED, reason)
        self._outcomes.clear()
        self._opened_at = None
        self._probes_issued = 0
        self._probes_ok = 0

    def _retry_after_locked(self) -> float:
        if self.state == OPEN and self._opened_at is not None:
            remaining = self.config.cooldown_s - (
                self._clock() - self._opened_at)
            return max(0.0, remaining)
        # Half-open with its probe budget in flight: suggest a short
        # wait — the probes decide within about one request.
        return self.config.cooldown_s / 2.0

    # -- the request-path API ------------------------------------------

    def acquire(self) -> str:
        """Admit one request, or shed it.

        Returns the outcome kind the caller must later pass to
        :meth:`record` — ``"closed"`` for normal flow, ``"probe"``
        for a half-open trial — and raises
        :class:`~repro.serve.errors.BreakerOpen` (with the seconds
        until the next probe window) when the request is refused.
        """
        with self._lock:
            if self.state == OPEN:
                assert self._opened_at is not None
                if (self._clock() - self._opened_at
                        >= self.config.cooldown_s):
                    self._transition(HALF_OPEN, "cooldown_elapsed")
                else:
                    self.short_circuits += 1
                    raise BreakerOpen(self.op,
                                      self._retry_after_locked())
            if self.state == HALF_OPEN:
                if self._probes_issued >= self.config.probes:
                    self.short_circuits += 1
                    raise BreakerOpen(self.op,
                                      self._retry_after_locked())
                self._probes_issued += 1
                return "probe"
            return "closed"

    def record(self, kind: str, *, error: bool) -> None:
        """Feed one finished request's outcome back.

        ``kind`` is what :meth:`acquire` returned. Probe outcomes
        drive the half-open verdict; closed outcomes feed the sliding
        window and may trip the breaker.
        """
        with self._lock:
            if kind == "probe":
                if error:
                    self._trip("probe_failed")
                else:
                    self._probes_ok += 1
                    if self._probes_ok >= self.config.probes:
                        self._close("probes_succeeded")
                return
            self._outcomes.append(bool(error))
            if (self.state == CLOSED
                    and len(self._outcomes)
                    >= self.config.min_requests
                    and self._error_rate() >= self.config.threshold):
                self._trip(f"error_rate={self._error_rate():.2f}")

    # -- introspection -------------------------------------------------

    def is_open(self) -> bool:
        with self._lock:
            return self.state == OPEN

    def retry_after_s(self) -> float:
        with self._lock:
            return self._retry_after_locked()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "op": self.op,
                "state": self.state,
                "error_rate": round(self._error_rate(), 4),
                "window_size": len(self._outcomes),
                "short_circuits": self.short_circuits,
                "transitions": len(self.transitions),
                "config": self.config.render(),
            }


class BreakerBoard:
    """The service's per-operation breakers, created lazily from one
    shared :class:`BreakerConfig`."""

    def __init__(self, config: BreakerConfig | str | None = None, *,
                 clock: Callable[[], float] = time.monotonic):
        if config is None:
            config = BreakerConfig.parse(DEFAULT_BREAKER)
        elif isinstance(config, str):
            config = BreakerConfig.parse(config)
        self.config = config
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}

    def for_op(self, op: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(op)
            if breaker is None:
                breaker = CircuitBreaker(op, self.config,
                                         clock=self._clock)
                self._breakers[op] = breaker
            return breaker

    def degraded(self) -> bool:
        """Whether any breaker has left the closed state — the
        service-wide signal that queries should prefer cached history
        over fresh recomputation."""
        with self._lock:
            breakers = list(self._breakers.values())
        return any(b.state != CLOSED for b in breakers)

    def transitions(self) -> list[dict[str, Any]]:
        """Every breaker's transitions, merged in time order."""
        with self._lock:
            breakers = list(self._breakers.values())
        merged: list[dict[str, Any]] = []
        for breaker in breakers:
            with breaker._lock:
                merged.extend(dict(t) for t in breaker.transitions)
        merged.sort(key=lambda t: t["at"])
        return merged

    def recovery_ms(self) -> list[float]:
        """Open -> closed durations (the chaos harness's MTTR input),
        one entry per completed outage, in ms."""
        durations: list[float] = []
        opened_at: dict[str, float] = {}
        for t in self.transitions():
            if t["to"] == OPEN:
                opened_at.setdefault(t["op"], t["at"])
            elif t["to"] == CLOSED and t["op"] in opened_at:
                durations.append(
                    (t["at"] - opened_at.pop(t["op"])) * 1000.0)
        return durations

    def stats(self) -> dict[str, Any]:
        with self._lock:
            breakers = dict(self._breakers)
        return {op: b.stats() for op, b in sorted(breakers.items())}

