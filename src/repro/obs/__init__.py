"""Unified observability: tracing spans, metrics, and exporters.

The single measurement substrate the ROADMAP's perf work rests on.
Every instrumented subsystem (query executor/profiler, Pregel engine,
graph database, mining pipeline, workload runner) speaks this API, so
one ``capture()`` lights up the whole stack and collects the root
spans finished inside it:

    >>> from repro import obs
    >>> with obs.capture() as trace:
    ...     with obs.span("demo", n=3):
    ...         obs.get_registry().inc("demo.items", 3)
    >>> print(obs.render_tree(trace.roots))       # doctest: +SKIP
    >>> obs.reset()

Tracing is **disabled by default**; the gated :func:`span` constructor
returns a shared no-op singleton while off, so instrumentation costs
one attribute read on hot paths. ``python -m repro.obs.report`` runs a
small instrumented workload end to end and prints the span tree plus
the metric summary.

On top of the substrate sit two analysis layers: :mod:`repro.obs.bench`
(``python -m repro.obs.bench run|compare|report``) runs the registered
benchmark cases, writes schema-versioned ``BENCH_<label>.json``
artifacts and detects regressions between them, and
:mod:`repro.obs.timeline` reconstructs per-worker / per-superstep lanes
and load-skew statistics from :mod:`repro.dist` span records.

Resource attribution rides the same spans: :mod:`repro.obs.profile`
(``python -m repro.obs.profile``) attributes CPU time and allocation
peaks to each span (``cpu_ms`` / ``self_cpu_ms`` / ``peak_alloc_kb``
attributes, off by default, zero overhead while off), and
:mod:`repro.obs.memory` exposes peak-RSS / tracemalloc gauges plus the
:class:`AllocationTracker` block-level allocation meter.

Request-scoped telemetry completes the picture:
:mod:`repro.obs.trace_context` propagates a per-request ``trace_id``
onto every span via ``contextvars``, :mod:`repro.obs.retention` keeps
a bounded trace store with tail-based keep rules,
:mod:`repro.obs.slowlog` aggregates fingerprinted query latencies,
:mod:`repro.obs.slo` evaluates declarative SLOs over multi-window
burn rates, and ``python -m repro.obs.live`` is the polling ops
console over a running :mod:`repro.serve` instance.
"""

from repro.obs.memory import (
    AllocationTracker,
    current_rss_kb,
    memory_summary,
    peak_rss_kb,
    record_memory_gauges,
    traced_memory_kb,
)
from repro.obs.export import (
    OBS_SCHEMA,
    ArtifactError,
    SpanRecord,
    from_jsonl,
    link_span_records,
    load_json_artifact,
    load_observability_artifact,
    observability_dict,
    render_prometheus,
    render_tree,
    span_record,
    to_jsonl,
)
from repro.obs.deadline import (
    DEADLINE_HEADER,
    Deadline,
    DeadlineExceeded,
    check_deadline,
    current_deadline,
    deadline_scope,
    parse_deadline_ms,
)
from repro.obs.retention import RetentionPolicy, TraceStore
from repro.obs.slo import (
    SLOMonitor,
    SLOSpec,
    evaluate_samples,
    parse_specs,
)
from repro.obs.slowlog import SlowLog, fingerprint
from repro.obs.trace_context import (
    TRACE_HEADER,
    accept_trace_id,
    current_trace_id,
    new_trace_id,
    trace_scope,
    valid_trace_id,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.timeline import (
    Lane,
    SuperstepLanes,
    Timeline,
    build_timeline,
    render_timeline,
)
from repro.obs.spans import (
    NULL_SPAN,
    Span,
    Tracer,
    capture,
    current_span,
    disable,
    enable,
    forced_span,
    get_tracer,
    is_enabled,
    span,
    subscribe,
    unsubscribe,
)

__all__ = [
    # spans
    "NULL_SPAN", "Span", "Tracer", "capture", "current_span", "disable",
    "enable", "forced_span", "get_tracer", "is_enabled", "reset", "span",
    "subscribe", "unsubscribe",
    # metrics
    "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry",
    # export
    "OBS_SCHEMA", "ArtifactError", "SpanRecord", "from_jsonl",
    "link_span_records", "load_json_artifact",
    "load_observability_artifact", "observability_dict",
    "render_prometheus", "render_tree", "span_record", "to_jsonl",
    # request tracing / retention / slowlog / SLOs
    "TRACE_HEADER", "RetentionPolicy", "SLOMonitor", "SLOSpec",
    "SlowLog", "TraceStore", "accept_trace_id", "current_trace_id",
    "evaluate_samples", "fingerprint", "new_trace_id", "parse_specs",
    "trace_scope", "valid_trace_id",
    # deadlines (repro.obs.deadline)
    "DEADLINE_HEADER", "Deadline", "DeadlineExceeded", "check_deadline",
    "current_deadline", "deadline_scope", "parse_deadline_ms",
    # timeline (the bench harness lives in repro.obs.bench — imported
    # explicitly, so `import repro.obs` stays light)
    "Lane", "SuperstepLanes", "Timeline", "build_timeline",
    "render_timeline",
    # profiling (repro.obs.profile)
    "ProfileNode", "disable_profiling", "enable_profiling", "hot_spans",
    "is_profiling", "profile_tree", "profiled", "render_flame",
    # memory accounting (repro.obs.memory)
    "AllocationTracker", "current_rss_kb", "memory_summary",
    "peak_rss_kb", "record_memory_gauges", "traced_memory_kb",
]


#: Lazily re-exported from :mod:`repro.obs.profile` (PEP 562) so
#: ``python -m repro.obs.profile`` does not trip runpy's
#: already-imported warning by importing the module during package
#: init.
_PROFILE_EXPORTS = frozenset({
    "ProfileNode", "disable_profiling", "enable_profiling",
    "hot_spans", "is_profiling", "profile_tree", "profiled",
    "render_flame",
})


def __getattr__(name: str):
    if name in _PROFILE_EXPORTS:
        from repro.obs import profile

        return getattr(profile, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


def reset() -> None:
    """Zero the process-wide metric registry.

    There are no global spans to drop: the tracer retains none, and
    each :func:`capture` owns the roots it collected."""
    get_registry().reset()
