"""Pieces every workload shares: the operation log, the end-to-end
metric set, and readers for ``/proc``."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any

from perfbench import stats
from perfbench.spans import SpanRecorder

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    #: Failed correctness checks, one line each; empty means correct.
    check_failures: list[str] = field(default_factory=list)
    #: End-to-end figures under the names the workload's doc uses.
    named: dict[str, Any] = field(default_factory=dict)
    #: Lines printed before the result: unmeasured metrics and why,
    #: tail percentiles and their sample counts, and the like.
    notes: list[str] = field(default_factory=list)
    #: Spans of the traced part of the run, written out by ``run.py``.
    recorder: SpanRecorder | None = None


class OpLog:
    """Latency samples per operation class. A failed operation is
    recorded as :data:`stats.MISSED`. A ``derived`` class holds a
    subset of another class's samples and is not counted again."""

    def __init__(self, classes: tuple[str, ...],
                 derived: tuple[str, ...] = ()):
        self.classes = classes
        self.counted = tuple(c for c in classes if c not in derived)
        self.samples: dict[str, list[float]] = {c: [] for c in classes}
        self.errors: list[str] = []

    def ok(self, cls: str, ms: float) -> None:
        self.samples[cls].append(ms)

    def miss(self, cls: str, why: str) -> None:
        self.samples[cls].append(stats.MISSED)
        if len(self.errors) < 20:
            self.errors.append(f"{cls}: {why}")

    @property
    def attempted(self) -> int:
        return sum(len(self.samples[c]) for c in self.counted)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.counted for x in self.samples[c]
                   if x == stats.MISSED)

    def p(self, cls: str, pct: float) -> float:
        """Percentile ``pct`` of a class; a class with no samples at all
        (a run too short to reach it) misses every limit too."""
        if not self.samples[cls]:
            return stats.MISSED_MS
        return stats.reportable(stats.percentile(self.samples[cls], pct))

    def median_ms(self, cls: str) -> float:
        """Median over successes only (for figures that are not gated,
        such as the tracing overhead)."""
        good = [x for x in self.samples[cls] if x != stats.MISSED]
        return stats.median(good) if good else 0.0


def end_to_end(log: OpLog, *, slots: tuple[str, str, str, str],
               tails: tuple[float, float], window_s: float,
               setup_s: list[float], peak_rss_mb: float,
               notes: list[str]) -> dict[str, tuple[float, str]]:
    """The end-to-end metric set every workload reports.

    ``slots`` names the op class behind ``op1`` .. ``op4``; ``tails``
    fixes the percentile of ``op1_tail_ms`` and ``op2_tail_ms``. The
    tail percentiles are fixed per workload so runs stay comparable;
    a note says when a run had fewer than ten samples beyond one.
    """
    for cls, pct in zip(slots[:2], tails):
        n = len(log.samples[cls])
        past = stats.beyond(n, pct) if n else 0
        allowed = stats.tail_percentile(n)
        notes.append(f"tail {cls}: p{pct:g} of {n} samples, {past} "
                     f"beyond it (the highest with {stats.MIN_BEYOND} "
                     f"beyond: p{allowed or 0:g})")
        if past < stats.MIN_BEYOND:
            notes.append(f"WARNING: tail {cls} has fewer than "
                         f"{stats.MIN_BEYOND} samples beyond p{pct:g}")
    metrics = {
        "setup_s": (stats.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_per_s": ((log.attempted - log.failed) / window_s, "1/s"),
    }
    for i, cls in enumerate(slots, start=1):
        metrics[f"op{i}_p50_ms"] = (log.p(cls, 50.0), "ms")
        if i <= 2:
            metrics[f"op{i}_tail_ms"] = (log.p(cls, tails[i - 1]), "ms")
    return metrics


def proc_status_kb(pid: int | str, field_name: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status``, such as ``VmHWM``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise KeyError(field_name)


def peak_rss_mb(pid: int | str = "self") -> float:
    return proc_status_kb(pid, "VmHWM") / 1024.0


def cpu_ms(pid: int) -> float:
    """User plus system CPU time of a process so far, in ms."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")


class Window:
    """The measured interval of a run."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def left(self) -> float:
        return self.seconds - (time.perf_counter() - self.start)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def overhead_pct(log: OpLog, traced_log: OpLog,
                 notes: list[str]) -> float:
    """Tracing overhead: median over op classes of traced p50 /
    untraced p50 - 1, in %."""
    shares = []
    for cls in log.classes:
        plain, traced = log.median_ms(cls), traced_log.median_ms(cls)
        if plain > 0 and traced > 0:
            shares.append((traced / plain - 1.0) * 100.0)
            notes.append(f"tracing overhead {cls}: {plain:.3f} ms "
                         f"untraced, {traced:.3f} ms traced")
    return stats.median(shares) if shares else 0.0
