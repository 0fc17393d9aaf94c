"""Exporters for span trees and metric summaries.

Three output shapes, matching the three consumers:

* :func:`to_jsonl` / :func:`from_jsonl` -- one JSON object per finished
  span (flat records linked by ``parent_id``), the machine-readable
  trace dump; round-trips back into a linked tree of
  :class:`SpanRecord`;
* :func:`render_tree` -- an indented human-readable tree with durations
  and attributes, for terminals;
* :func:`observability_dict` -- spans plus the metric summary as one
  plain dict, the form the benchmark suite embeds in ``BENCH_*.json``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.spans import Span


class ArtifactError(ReproError):
    """A saved observability/report artifact could not be loaded:
    missing file, torn/truncated JSON, or the wrong payload shape.

    The report CLIs (``repro.obs.report --input``,
    ``repro.dist.report --input``) map this to a named non-zero exit
    instead of a traceback — a missing or half-written artifact is an
    operational condition, not a bug in the reader.
    """

#: Version tag stamped on :func:`observability_dict` payloads (and
#: embedded inside ``BENCH_*.json`` artifacts). Bump on shape changes
#: so consumers can reject payloads they do not understand.
OBS_SCHEMA = "repro.obs/v1"


def _jsonable(value: Any) -> Any:
    """Coerce attribute values to JSON-safe types (keys become str,
    unknown objects become their repr)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


def _walk(roots: Iterable[Span]) -> Iterator[Span]:
    for root in roots:
        yield from root.walk()


def span_record(span: Span) -> dict[str, Any]:
    """The flat JSON record for one span."""
    return {
        "span_id": span.span_id,
        "parent_id": span.parent.span_id if span.parent else None,
        "name": span.name,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "duration_ms": span.duration_ms,
        "attributes": _jsonable(span.attributes),
    }


def to_jsonl(roots: Iterable[Span]) -> str:
    """Serialize span trees as JSON-lines (depth-first, parents before
    children) -- typically the ``trace.roots`` of a :func:`capture`."""
    lines = [json.dumps(span_record(s), sort_keys=True, default=repr)
             for s in _walk(roots)]
    return "\n".join(lines)


@dataclass
class SpanRecord:
    """A span re-read from a JSON-lines dump, with tree links."""

    span_id: int
    parent_id: int | None
    name: str
    start_ns: int | None
    end_ns: int | None
    duration_ms: float
    attributes: dict[str, Any]
    children: list["SpanRecord"] = field(default_factory=list)

    def walk(self) -> Iterator["SpanRecord"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["SpanRecord"]:
        return [s for s in self.walk() if s.name == name]


def link_span_records(
    raw_records: Iterable[dict[str, Any]],
) -> list[SpanRecord]:
    """Link flat span dicts (``span_record`` shape, parents before
    children) into root :class:`SpanRecord` trees."""
    by_id: dict[int, SpanRecord] = {}
    roots: list[SpanRecord] = []
    for raw in raw_records:
        record = SpanRecord(
            span_id=raw["span_id"],
            parent_id=raw.get("parent_id"),
            name=raw["name"],
            start_ns=raw.get("start_ns"),
            end_ns=raw.get("end_ns"),
            duration_ms=raw.get("duration_ms", 0.0),
            attributes=raw.get("attributes", {}),
        )
        by_id[record.span_id] = record
        parent = by_id.get(record.parent_id)
        if parent is not None:
            parent.children.append(record)
        else:
            roots.append(record)
    return roots


def from_jsonl(text: str) -> list[SpanRecord]:
    """Parse a JSON-lines dump back into linked root records."""
    raw_records = [json.loads(line) for line in text.splitlines()
                   if line.strip()]
    return link_span_records(raw_records)


_TREE_ATTR_LIMIT = 60


def _format_attributes(attributes: dict[str, Any]) -> str:
    if not attributes:
        return ""
    parts = []
    for key, value in attributes.items():
        text = repr(value)
        if len(text) > _TREE_ATTR_LIMIT:
            text = text[:_TREE_ATTR_LIMIT - 3] + "..."
        parts.append(f"{key}={text}")
    return "  {" + ", ".join(parts) + "}"


def render_tree(roots: Iterable[Span | SpanRecord]) -> str:
    """The span forest as an indented text tree with durations."""
    lines: list[str] = []

    def render(span, depth: int) -> None:
        indent = "  " * depth
        lines.append(f"{indent}{span.name}  {span.duration_ms:.3f} ms"
                     f"{_format_attributes(span.attributes)}")
        for child in span.children:
            render(child, depth + 1)

    for root in roots:
        render(root, 0)
    return "\n".join(lines) if lines else "(no spans recorded)"


def observability_dict(
    roots: Iterable[Span],
    registry: MetricsRegistry | None = None,
) -> dict[str, Any]:
    """Spans + metrics as one embeddable dict (``BENCH_*.json`` form)."""
    if registry is None:
        registry = get_registry()
    return {
        "schema": OBS_SCHEMA,
        "spans": [span_record(s) for s in _walk(roots)],
        "metrics": registry.summary(),
    }


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """A registry instrument name as a Prometheus metric name: dots
    and any other illegal characters become underscores."""
    sanitized = _PROM_BAD.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """The registry in Prometheus text exposition format (v0.0.4).

    Counters get the conventional ``_total`` suffix, gauges render
    as-is (unset gauges are skipped — Prometheus has no null), and
    histograms expand to cumulative ``_bucket{le=...}`` series plus
    ``_sum`` and ``_count``, mapping the registry's inclusive
    upper-bound buckets directly onto ``le``.
    """
    if registry is None:
        registry = get_registry()
    lines: list[str] = []
    for name, counter in sorted(registry._counters.items()):
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(counter.value)}")
    for name, gauge in sorted(registry._gauges.items()):
        if gauge.value is None:
            continue
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(gauge.value)}")
    for name, histogram in sorted(registry._histograms.items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(histogram.bounds, histogram.counts):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_prom_value(bound)}"}} '
                f"{cumulative}")
        lines.append(
            f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{metric}_sum {_prom_value(histogram.total)}")
        lines.append(f"{metric}_count {histogram.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_json_artifact(path: str | Path) -> dict[str, Any]:
    """Read one saved JSON artifact; every failure mode is a named
    :class:`ArtifactError` (never a traceback-worthy surprise)."""
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ArtifactError(
            f"artifact {str(path)!r} does not exist") from None
    except OSError as exc:
        raise ArtifactError(
            f"artifact {str(path)!r} is unreadable: {exc}") from None
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ArtifactError(
            f"artifact {str(path)!r} is not valid JSON (torn or "
            f"partial write?): {exc}") from None
    if not isinstance(payload, dict):
        raise ArtifactError(
            f"artifact {str(path)!r} holds "
            f"{type(payload).__name__}, expected a JSON object")
    return payload


def load_observability_artifact(path: str | Path) -> dict[str, Any]:
    """Load a saved :func:`observability_dict` payload (the
    ``repro.obs.report --json`` output), validating its shape."""
    payload = load_json_artifact(path)
    if "spans" not in payload or "metrics" not in payload:
        raise ArtifactError(
            f"artifact {str(path)!r} is not an observability payload "
            f"(missing 'spans'/'metrics'; keys: "
            f"{sorted(payload)[:8]})")
    schema = payload.get("schema")
    if schema != OBS_SCHEMA:
        raise ArtifactError(
            f"artifact {str(path)!r} has schema {schema!r}; this "
            f"reader understands {OBS_SCHEMA!r}")
    return payload
