"""The resident graph service: hosted databases behind one facade.

:class:`GraphService` is the transport-agnostic core of
:mod:`repro.serve` — the HTTP layer (:mod:`repro.serve.server`) is a
thin JSON adapter over it, and benchmarks / tests drive it directly.
It composes the pieces the rest of the stack already built:

* graph lifecycle — each hosted graph is a
  :class:`~repro.graphdb.GraphDatabase` (indexes, transactions,
  triggers) built from a scenario generator or an explicit
  vertex/edge payload;
* declarative queries through the existing executor, validated by the
  :mod:`repro.analysis` QRY rules as a 400-level pre-flight and served
  through the version-keyed :class:`~repro.serve.cache.QueryCache`
  (a mutation bumps :attr:`~repro.graphdb.GraphDatabase.data_version`,
  so stale reads are structurally impossible);
* algorithms — the registered survey workloads
  (:mod:`repro.workloads.runner`) exposed by short alias;
* admission control — every request passes the
  :class:`~repro.serve.admission.AdmissionController` and runs inside
  a ``serve.request`` span carrying queue-wait vs. handler-time
  attribution.

Per-graph operations serialize on the graph's lock (readers iterate
live dicts, so an unlocked concurrent mutation could corrupt them);
concurrency across graphs and across the admission queue is real.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.graphdb import GraphDatabase
from repro.obs import get_registry, is_enabled, span
from repro.obs.deadline import (
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.obs.export import _jsonable, span_record
from repro.obs.retention import RetentionPolicy, TraceStore
from repro.obs.slo import SLOMonitor, SLOSpec
from repro.obs.slowlog import SlowLog
from repro.obs.spans import Span
from repro.obs.trace_context import current_trace_id, trace_scope
from repro.serve.admission import AdmissionController
from repro.serve.cache import QueryCache
from repro.serve.errors import (
    BadRequest,
    BreakerOpen,
    GraphExists,
    GraphNotFound,
    ServiceDraining,
    TraceNotFound,
    error_status,
)
from repro.serve.resilience import BreakerBoard, BreakerConfig
from repro.workloads import ALL_RUNNERS, run_computation

#: Short endpoint aliases for the Table 9/10/11 runner names (exact
#: registered names are accepted too).
ALGORITHM_ALIASES: dict[str, str] = {
    "pagerank": "Ranking & Centrality Scores",
    "components": "Finding Connected Components",
    "bfs": "Breadth-first-search or variant",
    "triangles": "Aggregations",
    "shortest_paths": "Finding Short / Shortest Paths",
    "reachability": "Reachability Queries",
    "partitioning": "Graph Partitioning",
    "communities": "Community Detection",
}


#: SLOs a service monitors when none are configured: most queries
#: fast, nearly all requests succeed. Literal grammar is validated by
#: the CFG006 analysis rule.
DEFAULT_SLOS: tuple[str, ...] = (
    "latency:query<250ms@0.95",
    "errors:*@0.99",
)


def resolve_algorithm(name: str) -> str:
    """An endpoint algorithm name -> registered runner name (400 on
    unknown)."""
    if name in ALGORITHM_ALIASES:
        return ALGORITHM_ALIASES[name]
    if name in ALL_RUNNERS:
        return name
    raise BadRequest(
        f"unknown algorithm {name!r}; aliases: "
        f"{sorted(ALGORITHM_ALIASES)} (full runner names accepted)")


def _build_graph(scenario: str, seed: int):
    if scenario == "product":
        from repro.workloads import generate_product_graph

        return generate_product_graph(seed=seed)
    from repro.workloads import SCENARIOS, build_scenario

    if scenario not in SCENARIOS:
        raise BadRequest(
            f"unknown scenario {scenario!r}; known: "
            f"{sorted(SCENARIOS) + ['product']}")
    return build_scenario(scenario, seed=seed)


@dataclass
class GraphHandle:
    """One hosted graph: its database plus bookkeeping."""

    graph_id: str
    db: GraphDatabase
    origin: dict[str, Any]
    lock: threading.RLock = field(default_factory=threading.RLock)

    def info(self) -> dict[str, Any]:
        return {"id": self.graph_id, "origin": dict(self.origin),
                **self.db.stats()}


class GraphService:
    """Hosted graphs + query cache + admission control, one facade.

    ``handler_delay_ms`` injects a sleep into every admitted handler —
    a load hook for backpressure tests and shedding demos, never set
    in normal serving.
    """

    def __init__(self, *, cache_capacity: int = 256,
                 max_in_flight: int = 8, queue_limit: int = 32,
                 queue_timeout_s: float = 5.0,
                 handler_delay_ms: float = 0.0,
                 slos: list[SLOSpec | str] | None = None,
                 retention: RetentionPolicy | None = None,
                 breaker: BreakerBoard | BreakerConfig | str |
                 None = None,
                 default_deadline_ms: float | None = None,
                 chaos: Any = None):
        self._graphs: dict[str, GraphHandle] = {}
        self._lock = threading.RLock()
        self._next_id = 1
        self.cache = QueryCache(capacity=cache_capacity)
        self.admission = AdmissionController(
            max_in_flight=max_in_flight, queue_limit=queue_limit,
            queue_timeout_s=queue_timeout_s)
        self.handler_delay_ms = handler_delay_ms
        self.traces = TraceStore(retention)
        self.slowlog = SlowLog()
        self.slo = SLOMonitor(
            list(DEFAULT_SLOS) if slos is None else slos)
        self.breakers = (breaker if isinstance(breaker, BreakerBoard)
                         else BreakerBoard(breaker))
        #: Execution budget minted per request when the transport did
        #: not adopt one from ``X-Repro-Deadline-Ms``. ``None`` (the
        #: default) leaves execution unbounded, matching pre-deadline
        #: behavior.
        self.default_deadline_ms = default_deadline_ms
        #: Fault-injection hook (see :mod:`repro.serve.chaos`): an
        #: object with ``apply(op, sp)`` / ``kill_plan()``, consulted
        #: inside the breaker guard so injected faults feed breaker
        #: windows exactly like organic ones. ``None`` in production.
        self.chaos = chaos
        self._draining = False
        self._drain_retry_after_s = 1.0
        self._started = time.monotonic()

    # -- request plumbing ------------------------------------------------

    @contextmanager
    def _request(self, op: str,
                 graph_id: str | None = None) -> Iterator[Any]:
        """Admission + the ``serve.request`` span around one request.

        The span attributes split total latency into ``queue_wait_ms``
        (admission) and ``handler_ms`` (the work), and the same split
        feeds the ``serve.queue_wait_ms`` / ``serve.handler_ms`` /
        ``serve.request_ms`` histograms.

        The whole request runs inside a :func:`trace_scope` — adopting
        the transport's id when the HTTP layer bound one, minting a
        fresh id otherwise — so every span the handler opens carries
        the request's ``trace_id``. On exit the finished root span is
        offered to the :class:`TraceStore` and the outcome recorded
        against the service's SLOs.
        """
        if self._draining:
            # Shed before consuming an admission slot; still recorded
            # against the SLOs so the drain window is visible.
            self.slo.record(op, 0.0, error=True)
            raise ServiceDraining(self._drain_retry_after_s)
        if is_enabled():
            registry = get_registry()
            registry.inc("serve.requests")
            registry.inc(f"serve.requests.{op}")
        start = time.perf_counter()
        status = 200
        # Mint the service's default execution budget unless the
        # transport already adopted one from the deadline header.
        if self.default_deadline_ms is not None \
                and current_deadline() is None:
            budget_ctx: Any = deadline_scope(self.default_deadline_ms)
        else:
            budget_ctx = nullcontext()
        with trace_scope(), budget_ctx:
            sp = span("serve.request", op=op, graph=graph_id)
            try:
                with sp:
                    with self.admission.admit() as wait_ms:
                        sp.set("queue_wait_ms", round(wait_ms, 3))
                        # A request that spent its whole budget in the
                        # queue 504s here, before any handler work.
                        check_deadline("serve.admission")
                        if self.handler_delay_ms:
                            time.sleep(self.handler_delay_ms / 1000.0)
                        handler_start = time.perf_counter()
                        try:
                            yield sp
                        finally:
                            handler_ms = (time.perf_counter()
                                          - handler_start) * 1000.0
                            sp.set("handler_ms", round(handler_ms, 3))
                            if is_enabled():
                                registry = get_registry()
                                registry.observe("serve.handler_ms",
                                                 handler_ms)
                                registry.observe("serve.request_ms",
                                                 wait_ms + handler_ms)
            except BaseException as exc:
                status = error_status(exc)
                raise
            finally:
                total_ms = (time.perf_counter() - start) * 1000.0
                self._finish_request(op, sp, total_ms, status=status)

    def _finish_request(self, op: str, sp: Any, total_ms: float, *,
                        status: int) -> None:
        """Post-request accounting: SLO outcome + trace retention.

        Client mistakes (4xx below 429) do not burn the error budget —
        only shed load (429/503) and server faults count — but *any*
        failed request marks its trace as an error for the retention
        tail, so the span tree behind a 400 stays debuggable.
        """
        self.slo.record(op, total_ms, error=status >= 429)
        if isinstance(sp, Span) and sp.closed and sp.parent is None:
            self.traces.ingest(sp, error=status != 200)

    def _handle(self, graph_id: str) -> GraphHandle:
        with self._lock:
            handle = self._graphs.get(graph_id)
        if handle is None:
            raise GraphNotFound(graph_id, list(self._graphs))
        return handle

    # -- resilience plumbing ---------------------------------------------

    @contextmanager
    def _breaker_guard(self, op: str, sp: Any) -> Iterator[None]:
        """Pass one request through ``op``'s circuit breaker.

        Acquire (which may shed with
        :class:`~repro.serve.errors.BreakerOpen`), run the body, then
        record the outcome — only server faults (mapped status >=
        500) feed the error window, so client 4xx and the breaker's
        own sheds never trip it. The chaos hook runs *inside* the
        guard: injected faults are indistinguishable from organic
        ones.
        """
        breaker = self.breakers.for_op(op)
        kind = breaker.acquire()
        if kind == "probe":
            sp.set("breaker", "probe")
        try:
            if self.chaos is not None:
                self.chaos.apply(op, sp)
            yield
        except BaseException as exc:
            breaker.record(kind, error=error_status(exc) >= 500)
            raise
        else:
            breaker.record(kind, error=False)

    def _stale_response(self, graph_id: str, text: str, sp: Any,
                        q_ms: Callable[[], float],
                        trace_id: str | None) -> dict[str, Any] | None:
        """A degraded answer from the newest superseded cache entry,
        explicitly marked, or ``None`` when history has nothing."""
        found = self.cache.get_stale(graph_id, text)
        if found is None:
            return None
        payload, _version, age_s = found
        sp.set("cache", "stale")
        sp.set("stale_age_s", round(age_s, 3))
        self.slowlog.record(text, q_ms(), cached=True,
                            trace_id=trace_id)
        if is_enabled():
            get_registry().inc("serve.degraded.stale_serves")
        return {**payload, "cache": "stale", "stale": True,
                "stale_age_s": round(age_s, 3)}

    def begin_drain(self, *, retry_after_s: float = 1.0) -> None:
        """Stop accepting new requests (503 + ``Retry-After``);
        in-flight handlers run to completion. Idempotent — the
        graceful half of :meth:`ServerHandle.shutdown`."""
        with self._lock:
            self._drain_retry_after_s = retry_after_s
            self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def drained(self) -> bool:
        """Whether no request is queued or executing."""
        return (self.admission.in_flight == 0
                and self.admission.waiting == 0)

    # -- graph lifecycle -------------------------------------------------

    def create_graph(self, *, graph_id: str | None = None,
                     scenario: str | None = None, seed: int = 0,
                     vertices: list | None = None,
                     edges: list | None = None,
                     directed: bool = True) -> dict[str, Any]:
        """Host a new graph, from a scenario generator or an explicit
        vertex/edge payload."""
        with self._request("create", graph_id):
            if scenario is not None and (vertices or edges):
                raise BadRequest(
                    "pass either scenario= or vertices=/edges=, "
                    "not both")
            if scenario is not None:
                db = GraphDatabase.from_graph(
                    _build_graph(scenario, seed))
                origin = {"scenario": scenario, "seed": seed}
            else:
                db = GraphDatabase(directed=directed)
                with db.transaction():
                    self._load_payload(db, vertices or [], edges or [])
                origin = {"scenario": None, "seed": seed}
            with self._lock:
                if graph_id is None:
                    graph_id = f"g{self._next_id}"
                    self._next_id += 1
                if graph_id in self._graphs:
                    raise GraphExists(graph_id)
                handle = GraphHandle(graph_id=graph_id, db=db,
                                     origin=origin)
                self._graphs[graph_id] = handle
            if is_enabled():
                get_registry().set_gauge("serve.graphs",
                                         len(self._graphs))
            return handle.info()

    @staticmethod
    def _load_payload(db: GraphDatabase, vertices: list,
                      edges: list) -> None:
        for raw in vertices:
            if not isinstance(raw, dict) or "id" not in raw:
                raise BadRequest(
                    f"vertex payload needs an 'id' field: {raw!r}")
            db.add_vertex(raw["id"], label=raw.get("label"),
                          **raw.get("properties", {}))
        for raw in edges:
            if not isinstance(raw, dict) or "u" not in raw \
                    or "v" not in raw:
                raise BadRequest(
                    f"edge payload needs 'u' and 'v' fields: {raw!r}")
            db.add_edge(raw["u"], raw["v"],
                        weight=raw.get("weight", 1.0),
                        label=raw.get("label"),
                        **raw.get("properties", {}))

    def delete_graph(self, graph_id: str) -> dict[str, Any]:
        with self._request("delete", graph_id):
            with self._lock:
                if graph_id not in self._graphs:
                    raise GraphNotFound(graph_id, list(self._graphs))
                del self._graphs[graph_id]
            dropped = self.cache.drop_graph(graph_id)
            if is_enabled():
                get_registry().set_gauge("serve.graphs",
                                         len(self._graphs))
            return {"deleted": graph_id, "cache_dropped": dropped}

    def list_graphs(self) -> dict[str, Any]:
        with self._lock:
            infos = [h.info() for h in self._graphs.values()]
        return {"graphs": infos}

    def graph_stats(self, graph_id: str) -> dict[str, Any]:
        return self._handle(graph_id).info()

    # -- queries ---------------------------------------------------------

    def query(self, graph_id: str, text: str, *,
              use_cache: bool = True) -> dict[str, Any]:
        """Run one GQL-lite query, cache-first.

        The response's ``cache`` field says which path served it; the
        rest of the payload is byte-identical either way (the cache
        stores the serialized payload). Degraded modes: with the query
        breaker open, the newest superseded cache entry is served
        (marked ``"stale": true`` with its age) instead of shedding;
        with any *other* breaker open, a cache miss also prefers a
        stale entry over recomputation, so a degraded service keeps
        answering from history.
        """
        if not isinstance(text, str) or not text.strip():
            raise BadRequest("query text must be a non-empty string")
        handle = self._handle(graph_id)
        with self._request("query", graph_id) as sp:
            q_start = time.perf_counter()
            trace_id = current_trace_id()

            def q_ms() -> float:
                return (time.perf_counter() - q_start) * 1000.0

            breaker = self.breakers.for_op("query")
            try:
                kind = breaker.acquire()
            except BreakerOpen:
                stale = (self._stale_response(graph_id, text, sp,
                                              q_ms, trace_id)
                         if use_cache else None)
                if stale is not None:
                    return stale
                if is_enabled():
                    get_registry().inc("serve.degraded.shed")
                raise
            if kind == "probe":
                sp.set("breaker", "probe")
            try:
                if self.chaos is not None:
                    self.chaos.apply("query", sp)
                with handle.lock:
                    version = handle.db.data_version
                    if use_cache:
                        cached = self.cache.get(graph_id, version,
                                                text)
                        if cached is not None:
                            sp.set("cache", "hit")
                            self.slowlog.record(text, q_ms(),
                                                cached=True,
                                                trace_id=trace_id)
                            breaker.record(kind, error=False)
                            return {**cached, "cache": "hit"}
                        if kind == "closed" \
                                and self.breakers.degraded():
                            # Service-wide degradation: avoid fresh
                            # recomputation when history can answer.
                            # Probes never shortcut — they must prove
                            # the real path.
                            stale = self._stale_response(
                                graph_id, text, sp, q_ms, trace_id)
                            if stale is not None:
                                breaker.record(kind, error=False)
                                return stale
                    # QRY pre-flight (strict): parse errors, unbound
                    # variables — and schema findings when the database
                    # has one — surface as QueryError -> 400 before the
                    # matcher runs.
                    result = handle.db.query(text, strict=True)
                    payload = {
                        "columns": list(result.columns),
                        "rows": _jsonable(result.rows),
                        "row_count": len(result.rows),
                        "version": version,
                    }
                    if use_cache:
                        self.cache.put(graph_id, version, text,
                                       payload)
            except Exception as exc:
                breaker.record(kind,
                               error=error_status(exc) >= 500)
                self.slowlog.record(text, q_ms(),
                                    error=type(exc).__name__,
                                    trace_id=trace_id)
                raise
            breaker.record(kind, error=False)
            sp.set("cache", "miss")
            sp.set("rows", payload["row_count"])
            self.slowlog.record(text, q_ms(), trace_id=trace_id)
            if is_enabled():
                get_registry().inc("serve.queries")
            return {**payload, "cache": "miss"}

    # -- mutations -------------------------------------------------------

    #: op name -> required payload fields.
    MUTATION_OPS = {
        "add_vertex": ("vertex",),
        "add_edge": ("u", "v"),
        "set_property": ("vertex", "key", "value"),
        "remove_vertex": ("vertex",),
        "remove_edge": ("edge_id",),
    }

    def mutate(self, graph_id: str,
               operations: list[dict[str, Any]]) -> dict[str, Any]:
        """Apply a batch of mutations in one transaction.

        The whole batch is validated before any of it runs; it commits
        (and bumps the data version, invalidating cached queries) or
        rolls back as a unit.
        """
        if not isinstance(operations, list) or not operations:
            raise BadRequest(
                "mutate needs a non-empty 'operations' list")
        for raw in operations:
            if not isinstance(raw, dict):
                raise BadRequest(f"operation is not an object: {raw!r}")
            op = raw.get("op")
            required = self.MUTATION_OPS.get(op)
            if required is None:
                raise BadRequest(
                    f"unknown mutation op {op!r}; known: "
                    f"{sorted(self.MUTATION_OPS)}")
            missing = [f for f in required if f not in raw]
            if missing:
                raise BadRequest(
                    f"mutation {op!r} is missing field(s) {missing}")
        handle = self._handle(graph_id)
        with self._request("mutate", graph_id) as sp:
            with self._breaker_guard("mutate", sp):
                with handle.lock:
                    db = handle.db
                    with db.transaction():
                        for raw in operations:
                            self._apply_mutation(db, raw)
                    version = db.data_version
            sp.set("operations", len(operations))
            if is_enabled():
                get_registry().inc("serve.mutations",
                                   len(operations))
            return {"applied": len(operations), "version": version}

    @staticmethod
    def _apply_mutation(db: GraphDatabase, raw: dict[str, Any]) -> None:
        op = raw["op"]
        if op == "add_vertex":
            db.add_vertex(raw["vertex"], label=raw.get("label"),
                          **raw.get("properties", {}))
        elif op == "add_edge":
            db.add_edge(raw["u"], raw["v"],
                        weight=raw.get("weight", 1.0),
                        label=raw.get("label"),
                        **raw.get("properties", {}))
        elif op == "set_property":
            db.set_vertex_property(raw["vertex"], raw["key"],
                                   raw["value"])
        elif op == "remove_vertex":
            db.remove_vertex(raw["vertex"])
        elif op == "remove_edge":
            db.remove_edge(raw["edge_id"])

    # -- algorithms ------------------------------------------------------

    def algorithm(self, graph_id: str, name: str, seed: int = 0, *,
                  distributed: bool = False,
                  shards: int = 2) -> dict[str, Any]:
        """Run one registered survey workload on a hosted graph.

        ``distributed=True`` routes through the :mod:`repro.dist`
        runtime (sharded workers under a coordinator, same process);
        the ambient trace id stamps every ``dist.worker.superstep``
        span, so one served request is traceable down to per-shard
        supersteps.
        """
        runner_name = resolve_algorithm(name)
        handle = self._handle(graph_id)
        with self._request("algorithm", graph_id) as sp:
            sp.set("algorithm", runner_name)
            if distributed:
                sp.set("distributed", True)
                sp.set("shards", shards)
            with self._breaker_guard("algorithm", sp):
                # Chaos may order a mid-request worker kill (FaultPlan
                # DSL) — only meaningful on the distributed runtime,
                # where the recovery supervisor absorbs it.
                fault_plan = None
                if self.chaos is not None and distributed:
                    fault_plan = self.chaos.kill_plan()
                    if fault_plan is not None:
                        sp.set("chaos.kill", str(fault_plan))
                with handle.lock:
                    result = run_computation(
                        runner_name, handle.db.graph, seed=seed,
                        distributed=distributed, shards=shards,
                        fault_plan=fault_plan)
            if is_enabled():
                get_registry().inc("serve.algorithms")
            return {
                "name": name,
                "algorithm": runner_name,
                "seed": seed,
                "distributed": distributed,
                "summary": _jsonable(result.summary),
                "elapsed_ms": round(result.elapsed_ms, 3),
            }

    # -- debug surfaces --------------------------------------------------

    def debug_traces(self, limit: int = 50) -> dict[str, Any]:
        """Newest-first digests of the retained traces + store stats."""
        return {
            "traces": self.traces.summaries(limit),
            "stats": self.traces.stats(),
        }

    def debug_trace(self, trace_id: str) -> dict[str, Any]:
        """One retained trace as flat span records (parents before
        children — :func:`~repro.obs.export.link_span_records` shape).
        404 when retention never kept or already evicted the id."""
        root = self.traces.get(trace_id)
        if root is None:
            raise TraceNotFound(trace_id)
        return {
            "trace_id": trace_id,
            "spans": [span_record(s) for s in root.walk()],
        }

    def debug_slowlog(self, limit: int = 20) -> dict[str, Any]:
        """Slow-query aggregates by total time + slowlog stats."""
        return {
            "slowlog": self.slowlog.report(limit),
            "stats": self.slowlog.stats(),
        }

    def debug_slo(self) -> dict[str, Any]:
        """Current multi-window SLO burn-rate evaluation."""
        return self.slo.evaluate()

    def debug_breakers(self) -> dict[str, Any]:
        """Per-operation breaker states, transitions, and the
        completed-outage durations (MTTR input)."""
        return {
            "config": self.breakers.config.render(),
            "breakers": self.breakers.stats(),
            "transitions": self.breakers.transitions(),
            "recovery_ms": [round(ms, 3)
                            for ms in self.breakers.recovery_ms()],
        }

    # -- health / metrics ------------------------------------------------

    def health(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "graphs": len(self._graphs),
            "uptime_s": round(time.monotonic() - self._started, 3),
            **self.admission.stats(),
        }

    def metrics(self) -> dict[str, Any]:
        """The process metric summary plus the serve roll-ups the
        traffic harness reads (everything obs-backed)."""
        summary = get_registry().summary()
        return {
            "schema": "repro.serve/metrics/v1",
            "serve": {
                "cache": self.cache.stats(),
                "admission": self.admission.stats(),
                "graphs": len(self._graphs),
                "traces": self.traces.stats(),
                "slowlog": self.slowlog.stats(),
                "slo": self.slo.stats(),
                "breakers": self.breakers.stats(),
            },
            **summary,
        }
