"""A Pregel-style vertex-centric computation engine.

Distributed graph processing systems (Giraph, GraphX, Gelly) are the
academic workhorses of the paper's Table 12 (17 of 90 papers) and the
survey's least-adopted system class (14 users). Their shared programming
model is Pregel's bulk-synchronous "think like a vertex": per superstep,
every active vertex receives its messages, updates its value, sends
messages along edges, and may vote to halt.

This module implements that model faithfully on one machine:

* superstep barriers with message delivery at the next superstep;
* vote-to-halt semantics with reactivation on message receipt;
* combiners (associative message pre-aggregation);
* aggregators (global per-superstep reductions, Pregel-style);
* observability via :mod:`repro.obs`: one span per superstep carrying
  active-vertex / message counts (plus value snapshots on demand),
  consumed by :mod:`repro.dgps.debugger`; the legacy trace hook is a
  thin adapter over those span events.

The classic algorithms expressed on top of it live in
:mod:`repro.dgps.algorithms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import ReproError
from repro.graphs.adjacency import Graph, Vertex
from repro.obs import (
    Span,
    current_deadline,
    forced_span,
    get_registry,
    is_enabled,
    span,
)


class PregelError(ReproError):
    """A vertex program misbehaved or the run exceeded its budget."""


@dataclass(slots=True)
class VertexContext:
    """Everything a vertex program sees during one superstep."""

    vertex: Vertex
    value: Any
    superstep: int
    _host: Any
    _plane: MessagePlane
    _out_edges: list[tuple[Vertex, float]]
    _messages: list[Any] | None = None
    _halted: bool = False

    @property
    def messages(self) -> list[Any]:
        """Messages sent to this vertex last superstep (with a
        combiner, at most one folded value)."""
        if self._messages is None:
            self._messages = self._plane.received(self.vertex)
        return self._messages

    def out_edges(self) -> list[tuple[Vertex, float]]:
        """(neighbor, weight) pairs for this vertex's out-edges."""
        return list(self._out_edges)

    def num_out_edges(self) -> int:
        return len(self._out_edges)

    def send(self, target: Vertex, message: Any) -> None:
        """Deliver a message to ``target`` at the next superstep."""
        self._plane.send(target, message)

    def send_to_neighbors(self, message: Any) -> None:
        self._plane.send_to_neighbors(self.vertex, message)

    def vote_to_halt(self) -> None:
        """Deactivate; the vertex reactivates if a message arrives."""
        self._halted = True

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute to a global aggregator for this superstep."""
        self._host._aggregate(name, value)

    def aggregated(self, name: str) -> Any:
        """The aggregator's value from the *previous* superstep."""
        return self._host._previous_aggregates.get(name)

    @property
    def num_vertices(self) -> int:
        return self._host.num_vertices


#: A vertex program: mutates/returns the vertex value given its context.
VertexProgram = Callable[[VertexContext], Any]
#: A combiner folds two messages for the same target into one.
Combiner = Callable[[Any, Any], Any]
#: An aggregator reduce function plus an identity element.
Aggregator = tuple[Callable[[Any, Any], Any], Any]


def require_known_vertex(known, target: Vertex) -> None:
    """Reject a message aimed at a vertex that is not in the graph.

    ``known`` is any container supporting ``in`` over the graph's
    vertices (the engine's value map, a shard assignment, ...).
    :meth:`MessagePlane.send` calls it, so every host fails at the
    *send* site with the same clear error instead of corrupting a later
    superstep.
    """
    if target not in known:
        raise PregelError(
            f"message sent to unknown vertex {target!r}: "
            f"message targets must be vertices of the graph")


def build_out_edges(graph: Graph) -> dict[Vertex, list[tuple[Vertex, float]]]:
    """Per-vertex ``(neighbor, weight)`` lists, undirected edges
    mirrored. Built from ``graph.edges()``, so every neighbor is a graph
    vertex by construction."""
    out_edges: dict[Vertex, list[tuple[Vertex, float]]] = {
        v: [] for v in graph.vertices()}
    for edge in graph.edges():
        out_edges[edge.u].append((edge.v, edge.weight))
        if not graph.directed and edge.u != edge.v:
            out_edges[edge.v].append((edge.u, edge.weight))
    return out_edges


class MessagePlane:
    """The message buffers of one BSP host, engine or shard.

    A superstep reads ``inbox`` while its sends land in ``local`` or,
    when ``route`` maps the target to a shard other than ``home``, in
    ``remote[dest]``; :meth:`advance` then makes ``local`` the next
    inbox. With a combiner each target keeps one value slot, folded in
    send order as ``slot = combiner(slot, message)``; without one, a
    list in send order. Targets enter each buffer in send order, which
    fixes the barrier's routing (and float fold) order.
    """

    def __init__(self, known,
                 out_edges: dict[Vertex, list[tuple[Vertex, float]]],
                 combiner: Combiner | None = None, *,
                 route=None, home: int = 0):
        self.combiner = combiner
        self._known = known
        self._route = route
        self._home = home
        # vertex -> ((dest, neighbors on dest), ...), split once here so
        # a fan-out needs no validation and no route lookup per message.
        self._fanout: dict[Vertex, tuple[tuple[int, tuple], ...]] = {}
        for vertex, pairs in out_edges.items():
            groups: dict[int, list[Vertex]] = {}
            for target, _ in pairs:
                dest = home if route is None else route[target]
                groups.setdefault(dest, []).append(target)
            self._fanout[vertex] = tuple(
                (dest, tuple(group)) for dest, group in groups.items())
        self.inbox: dict[Vertex, Any] = {}
        self.begin()

    def begin(self) -> None:
        """Empty the outgoing buffers and zero the counters."""
        self.local: dict[Vertex, Any] = {}
        self.remote: dict[int, dict[Vertex, Any]] = {}
        self.sent = 0
        self.remote_sent = 0

    def advance(self) -> None:
        """Local sends become the inbox of the next superstep."""
        self.inbox = self.local
        self.local = {}

    def send(self, target: Vertex, message: Any) -> None:
        require_known_vertex(self._known, target)
        dest = self._home if self._route is None else self._route[target]
        self._post(dest, (target,), message)

    def send_to_neighbors(self, vertex: Vertex, message: Any) -> None:
        for dest, targets in self._fanout[vertex]:
            self._post(dest, targets, message)

    def _post(self, dest: int, targets: tuple[Vertex, ...],
              message: Any) -> None:
        self.sent += len(targets)
        if dest == self._home:
            box = self.local
        else:
            self.remote_sent += len(targets)
            box = self.remote.get(dest)
            if box is None:
                box = self.remote[dest] = {}
        combine = self.combiner
        if combine is None:
            for target in targets:
                box.setdefault(target, []).append(message)
        else:
            for target in targets:
                box[target] = (combine(box[target], message)
                               if target in box else message)

    def routed(self) -> int:
        """Messages leaving for other shards; a combined slot is one."""
        if self.combiner is None:
            return self.remote_sent
        return sum(len(box) for box in self.remote.values())

    def _as_list(self, entry: Any) -> list[Any]:
        return list(entry) if self.combiner is None else [entry]

    def received(self, vertex: Vertex) -> list[Any]:
        """``vertex``'s inbox entry as a message list."""
        if vertex not in self.inbox:
            return []
        return self._as_list(self.inbox[vertex])

    def outgoing(self) -> dict[int, dict[Vertex, list[Any]]]:
        """The remote buffers as message lists; a combined slot travels
        (and is counted at the barrier) as one message."""
        return {dest: {target: self._as_list(entry)
                       for target, entry in box.items()}
                for dest, box in self.remote.items()}

    def accept(self, target: Vertex, messages: list[Any]) -> int:
        """Fold routed messages into the inbox; returns how many."""
        box = self.inbox
        if self.combiner is None:
            box.setdefault(target, []).extend(messages)
        else:
            for message in messages:
                box[target] = (self.combiner(box[target], message)
                               if target in box else message)
        return len(messages)

    def pending(self) -> dict[Vertex, list[Any]]:
        """The inbox as ``{vertex: [messages]}`` (checkpoint format)."""
        return {v: self._as_list(entry) for v, entry in self.inbox.items()}

    def restore(self, pending: dict[Vertex, list[Any]]) -> None:
        """Refill the inbox from :meth:`pending` output."""
        self.inbox = {}
        for target, messages in pending.items():
            self.accept(target, messages)


def run_local_superstep(
    host,
    program: VertexProgram,
    superstep: int,
    active: Iterable[Vertex],
    values: dict[Vertex, Any],
    plane: MessagePlane,
    out_edges: dict[Vertex, list[tuple[Vertex, float]]],
    halted: set[Vertex],
) -> None:
    """Superstep-local compute, shared by every BSP executor.

    Runs ``program`` over ``active`` vertices, mutating ``values`` and
    ``halted`` in place. Messages are read from and sent through
    ``plane``; ``host`` receives the aggregations: it must provide
    ``_aggregate``, ``_previous_aggregates`` and ``num_vertices``.
    :class:`PregelEngine` passes itself (whole graph); a
    :class:`repro.dist.worker.Worker` passes itself (one shard), which
    is what keeps distributed supersteps bit-for-bit the same compute
    as the single-machine engine.
    """
    for vertex in active:
        halted.discard(vertex)
        context = VertexContext(vertex, values[vertex], superstep, host,
                                plane, out_edges[vertex])
        new_value = program(context)
        if new_value is not None:
            values[vertex] = new_value
        else:
            values[vertex] = context.value
        if context._halted:
            halted.add(vertex)


@dataclass(frozen=True)
class SuperstepStats:
    """Observability record for one superstep."""

    superstep: int
    active_vertices: int
    messages_sent: int
    aggregates: dict[str, Any]


@dataclass
class PregelResult:
    """Final vertex values plus the execution trace."""

    values: dict[Vertex, Any]
    supersteps: int
    stats: list[SuperstepStats]

    def total_messages(self) -> int:
        return sum(s.messages_sent for s in self.stats)


class PregelEngine:
    """Single-machine BSP executor for vertex programs."""

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        initial_value: Callable[[Vertex], Any] | Any = None,
        combiner: Combiner | None = None,
        aggregators: dict[str, Aggregator] | None = None,
        max_supersteps: int = 100,
    ):
        self._graph = graph
        self._program = program
        self._aggregators = dict(aggregators or {})
        self._max_supersteps = max_supersteps
        self.num_vertices = graph.num_vertices()

        self._values: dict[Vertex, Any] = {}
        for vertex in graph.vertices():
            if callable(initial_value):
                self._values[vertex] = initial_value(vertex)
            else:
                self._values[vertex] = initial_value
        self._out_edges = build_out_edges(graph)
        self._plane = MessagePlane(self._values, self._out_edges, combiner)
        self._halted: set[Vertex] = set()
        self._current_aggregates: dict[str, Any] = {}
        self._previous_aggregates: dict[str, Any] = {}
        self._span_listeners: list[Callable[[Span], None]] = []
        self._capture_values = False

    # -- engine internals (called by VertexContext) ---------------------

    def _aggregate(self, name: str, value: Any) -> None:
        try:
            reduce_fn, identity = self._aggregators[name]
        except KeyError:
            raise PregelError(f"unknown aggregator {name!r}") from None
        current = self._current_aggregates.get(name, identity)
        self._current_aggregates[name] = reduce_fn(current, value)

    # -- public API ------------------------------------------------------

    def on_superstep_span(
        self, listener: Callable[[Span], None],
    ) -> None:
        """Register a listener for finished ``pregel.superstep`` spans.

        Each superstep closes one :class:`repro.obs.Span` carrying
        ``superstep``, ``active_vertices``, ``messages_sent`` and
        ``aggregates`` attributes (plus ``values``, a snapshot of every
        vertex value, when :meth:`capture_values` is on). Listeners
        receive the span immediately after it closes, even while global
        tracing is disabled.
        """
        self._span_listeners.append(listener)

    def capture_values(self, on: bool = True) -> None:
        """Attach a full vertex-value snapshot to each superstep span
        (the debugger's food; off by default because snapshots are
        O(vertices) per superstep)."""
        self._capture_values = on

    def set_trace_hook(
        self, hook: Callable[[int, dict[Vertex, Any]], None],
    ) -> None:
        """Legacy hook API, kept as a thin adapter over the
        :mod:`repro.obs` span events: ``hook(superstep, values)`` is
        called from each finished superstep span."""
        self.capture_values()
        self.on_superstep_span(
            lambda sp: hook(sp.attributes["superstep"],
                            sp.attributes["values"]))

    def _observing(self) -> bool:
        return bool(self._span_listeners) or self._capture_values

    def run(self) -> PregelResult:
        """Execute supersteps until every vertex halts with no messages
        in flight, or the budget is exhausted (then raises
        :class:`PregelError`)."""
        with span("pregel.run", vertices=self.num_vertices) as run_span:
            result = self._run_supersteps()
            run_span.set("supersteps", result.supersteps)
            run_span.set("messages", result.total_messages())
        if is_enabled():
            from repro.obs.memory import record_memory_gauges

            record_memory_gauges(prefix="pregel.mem")
        return result

    def _run_supersteps(self) -> PregelResult:
        stats: list[SuperstepStats] = []
        metrics = get_registry() if is_enabled() else None
        deadline = current_deadline()
        superstep = 0
        while superstep < self._max_supersteps:
            # Superstep boundaries are the engine's cooperative yield
            # points: an expired request budget surfaces here rather
            # than interrupting a compute() mid-vertex.
            if deadline is not None:
                deadline.check(f"pregel.superstep:{superstep}")
            plane = self._plane
            active = [
                v for v in self._values
                if v not in self._halted or v in plane.inbox
            ]
            if not active:
                break
            # Listeners (debugger, legacy trace hooks) need real span
            # objects even when global tracing is off; the plain gated
            # constructor keeps the no-listener path allocation-free.
            if self._observing():
                step_span = forced_span("pregel.superstep",
                                        superstep=superstep)
            else:
                step_span = span("pregel.superstep", superstep=superstep)
            with step_span:
                plane.begin()
                self._current_aggregates = {
                    name: identity
                    for name, (_, identity) in self._aggregators.items()}
                run_local_superstep(
                    self, self._program, superstep, active,
                    self._values, plane, self._out_edges, self._halted)
                stats.append(SuperstepStats(
                    superstep=superstep,
                    active_vertices=len(active),
                    messages_sent=plane.sent,
                    aggregates=dict(self._current_aggregates)))
                step_span.set("active_vertices", len(active))
                step_span.set("messages_sent", plane.sent)
                step_span.set("aggregates",
                              dict(self._current_aggregates))
                if self._capture_values:
                    step_span.set("values", dict(self._values))
            for listener in self._span_listeners:
                listener(step_span)  # closed span, timing complete
            if metrics is not None:
                metrics.inc("pregel.supersteps")
                metrics.inc("pregel.messages_sent", plane.sent)
                metrics.observe("pregel.superstep_ms",
                                step_span.duration_ms)
            self._previous_aggregates = dict(self._current_aggregates)
            plane.advance()
            superstep += 1
        else:
            raise PregelError(
                f"computation did not finish within "
                f"{self._max_supersteps} supersteps")
        return PregelResult(values=dict(self._values),
                            supersteps=superstep, stats=stats)


@dataclass(frozen=True)
class PregelSpec:
    """A complete vertex-program configuration, independent of the
    executor.

    Bundles everything :func:`run_pregel` takes besides the graph, so
    the same computation can be handed unchanged to the single-machine
    :class:`PregelEngine` or to the sharded runtime in
    :mod:`repro.dist` (``run_distributed_pregel(graph, spec, k=8)``).
    """

    program: VertexProgram
    initial_value: Callable[[Vertex], Any] | Any = None
    combiner: Combiner | None = None
    aggregators: dict[str, Aggregator] | None = None
    max_supersteps: int = 100

    def analyze(self, strict: bool = False):
        """Run :mod:`repro.analysis` over the program and spec values.

        Returns the :class:`~repro.analysis.AnalysisReport`; with
        ``strict=True``, error findings raise
        :class:`~repro.analysis.AnalysisError` instead of merely being
        reported (and findings are recorded as obs span events either
        way)."""
        from repro.analysis import analyze_spec

        return analyze_spec(self, strict=strict)

    def run(self, graph: Graph, strict: bool = False) -> PregelResult:
        """Execute on the single-machine engine (``strict=True``
        analyzes the spec first)."""
        if strict:
            self.analyze(strict=True)
        return run_pregel(
            graph, self.program, initial_value=self.initial_value,
            combiner=self.combiner, aggregators=self.aggregators,
            max_supersteps=self.max_supersteps)


def run_pregel(
    graph: Graph,
    program: VertexProgram,
    initial_value: Callable[[Vertex], Any] | Any = None,
    combiner: Combiner | None = None,
    aggregators: dict[str, Aggregator] | None = None,
    max_supersteps: int = 100,
    trace_hook: Callable[[int, dict[Vertex, Any]], None] | None = None,
    strict: bool = False,
) -> PregelResult:
    """One-shot convenience wrapper around :class:`PregelEngine`
    (``strict=True`` runs :mod:`repro.analysis` over the program
    first, raising on error findings)."""
    if strict:
        PregelSpec(program=program, initial_value=initial_value,
                   combiner=combiner, aggregators=aggregators,
                   max_supersteps=max_supersteps).analyze(strict=True)
    engine = PregelEngine(
        graph, program, initial_value=initial_value, combiner=combiner,
        aggregators=aggregators, max_supersteps=max_supersteps)
    if trace_hook is not None:
        engine.set_trace_hook(trace_hook)
    return engine.run()


def sum_aggregator() -> Aggregator:
    return (lambda a, b: a + b, 0)


def max_aggregator() -> Aggregator:
    return (lambda a, b: b if a is None or b > a else a, None)


def min_aggregator() -> Aggregator:
    return (lambda a, b: b if a is None or b < a else a, None)
