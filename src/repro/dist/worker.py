"""One shard's executor in the distributed runtime.

A :class:`Worker` owns its shard's vertices: their values, halted
flags, out-adjacency, and the inbox of messages due this superstep.
Each superstep it runs the *same* superstep-local compute as the
single-machine engine (:func:`repro.dgps.pregel.run_local_superstep` —
the worker is the ``host`` that receives aggregations, and its
:class:`~repro.dgps.pregel.MessagePlane` carries the sends), so a
vertex program cannot tell which runtime it is on.

What differs is where messages go. The worker's plane routes by the
shard assignment: a send to a local vertex lands in the worker's own
next-superstep inbox; a send to a remote vertex is buffered per
destination shard, with the combiner applied *at the sender* — folding
n messages for one remote target into one before routing, which is the
classic trick for cutting cross-shard traffic (the
``messages_combined`` count is exactly the traffic saved).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.dgps.pregel import (
    Aggregator,
    Combiner,
    MessagePlane,
    PregelError,
    VertexProgram,
    run_local_superstep,
)
from repro.graphs.adjacency import Vertex
from repro.obs import check_deadline, span


@dataclass
class WorkerStepResult:
    """What one worker hands the coordinator at the barrier."""

    worker: str
    superstep: int
    active_vertices: int
    messages_sent: int
    messages_local: int
    messages_routed: int
    messages_combined: int
    #: dest shard -> {target vertex -> [sender-combined messages]}
    remote: dict[int, dict[Vertex, list[Any]]] = field(default_factory=dict)
    #: aggregator partials, only for aggregators this worker touched
    aggregates: dict[str, Any] = field(default_factory=dict)


class Worker:
    """Executor for one shard of the graph."""

    def __init__(
        self,
        index: int,
        vertices: tuple[Vertex, ...],
        assignment,
        program: VertexProgram,
        values: dict[Vertex, Any],
        out_edges: dict[Vertex, list[tuple[Vertex, float]]],
        combiner: Combiner | None,
        aggregators: dict[str, Aggregator],
        num_vertices: int,
    ):
        self.index = index
        self.name = f"w{index}"
        self.vertices = vertices
        self._program = program
        self._aggregators = aggregators
        #: global vertex count — VertexContext.num_vertices reads this,
        #: so programs see the whole graph's size, not the shard's.
        self.num_vertices = num_vertices

        self.values: dict[Vertex, Any] = values
        self.halted: set[Vertex] = set()
        self._out_edges = out_edges
        self._plane = MessagePlane(assignment, out_edges, combiner,
                                   route=assignment, home=index)

        self._previous_aggregates: dict[str, Any] = {}
        self._current_aggregates: dict[str, Any] = {}

    # -- host surface used by VertexContext -----------------------------

    def _aggregate(self, name: str, value: Any) -> None:
        try:
            reduce_fn, identity = self._aggregators[name]
        except KeyError:
            raise PregelError(f"unknown aggregator {name!r}") from None
        current = self._current_aggregates.get(name, identity)
        self._current_aggregates[name] = reduce_fn(current, value)

    # -- superstep lifecycle ---------------------------------------------

    def active_vertices(self) -> list[Vertex]:
        """Vertices that will compute next superstep (shard order)."""
        inbox = self._plane.inbox
        return [v for v in self.vertices
                if v not in self.halted or v in inbox]

    def has_active(self) -> bool:
        inbox = self._plane.inbox
        return any(v not in self.halted or v in inbox
                   for v in self.vertices)

    def run_superstep(self, superstep: int,
                      previous_aggregates: dict[str, Any],
                      *, injected_delay_ms: float = 0.0,
                      ) -> WorkerStepResult:
        """Compute one local superstep; messages buffered, not routed.

        ``injected_delay_ms`` is a chaos-harness slow-worker fault: the
        latency is recorded on the worker's span (not slept), so skew
        tooling and reports see the straggler without the simulated
        runtime paying real wall-clock time.
        """
        with span("dist.worker.superstep", worker=self.name,
                  superstep=superstep,
                  shard_vertices=len(self.vertices)) as work_span:
            check_deadline(f"dist.worker.superstep:{self.name}"
                           f"@{superstep}")
            if injected_delay_ms:
                work_span.set("injected_delay_ms", injected_delay_ms)
            self._previous_aggregates = previous_aggregates
            self._current_aggregates = {}
            plane = self._plane
            plane.begin()

            active = self.active_vertices()
            run_local_superstep(
                self, self._program, superstep, active,
                self.values, plane, self._out_edges, self.halted)
            # This superstep's inbox is consumed; local sends become the
            # start of the next one (remote partials arrive via deliver).
            plane.advance()

            routed = plane.routed()
            result = WorkerStepResult(
                worker=self.name,
                superstep=superstep,
                active_vertices=len(active),
                messages_sent=plane.sent,
                messages_local=plane.sent - plane.remote_sent,
                messages_routed=routed,
                messages_combined=plane.remote_sent - routed,
                remote=plane.outgoing(),
                aggregates=dict(self._current_aggregates))
            work_span.set("active_vertices", len(active))
            work_span.set("messages_sent", plane.sent)
            work_span.set("messages_routed", routed)
            work_span.set("messages_combined", result.messages_combined)
        return result

    def deliver(self, target: Vertex, messages: list[Any]) -> int:
        """Accept routed messages for a local vertex (next superstep).

        With a combiner, routed partials fold into the inbox slot so
        the receiving vertex sees a single combined message — the same
        invariant the single-machine engine maintains. Returns the
        number of messages accepted — the coordinator's barrier
        accounting compares the sum against what was routed to detect
        injected message loss/duplication.
        """
        return self._plane.accept(target, messages)

    # -- durability -------------------------------------------------------

    def checkpoint_state(self) -> dict[str, Any]:
        """Everything recovery needs to rebuild this shard."""
        return {
            "values": dict(self.values),
            "halted": set(self.halted),
            "inbox": self._plane.pending(),
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Reset shard state from a checkpoint (respawn after a kill)."""
        self.values = dict(state["values"])
        self.halted = set(state["halted"])
        self._plane.restore(state["inbox"])

    def __repr__(self) -> str:
        return (f"Worker({self.name}, vertices={len(self.vertices)}, "
                f"halted={len(self.halted)})")
