"""The coordinator: barriers, routing, durability, recovery.

Drives k :class:`~repro.dist.worker.Worker` shards through bulk-
synchronous supersteps:

1. **compute** — each worker runs the superstep over its shard (a
   pending fault in the :class:`~repro.dist.faults.FaultPlan` kills its
   worker here, mid-computation);
2. **barrier** — the coordinator routes every worker's sender-combined
   remote buffers to their destination shards and merges aggregator
   partials in worker order;
3. **checkpoint** — worker states plus pending inboxes go to the
   :class:`~repro.dist.checkpoint.CheckpointStore` (every
   ``checkpoint_every`` barriers).

Any :class:`~repro.dist.faults.InjectedFault` — a worker kill, a
flaky worker's repeated failure, or a detected barrier message
loss/duplication — unwinds to the superstep loop, which hands it to
the :class:`~repro.dist.resilience.RecoverySupervisor`: restore *all*
shards from the newest checkpoint that passes integrity validation
(falling back past corrupt ones), enforce the retry policy, and
replay. Execution is deterministic (fixed shard order, fixed routing
order), so the recovered run finishes with vertex values byte-identical
to a fault-free run.

Combiners and aggregators must be the associative/commutative monoids
Pregel already requires: the distributed barrier folds sender-side
partials in worker order, which groups float additions differently
than the single-machine engine's global send order (exact operators —
min/max/int sums — match it bitwise; float sums match to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.dgps.pregel import (
    Aggregator,
    Combiner,
    PregelError,
    PregelSpec,
    VertexProgram,
    build_out_edges,
)
from repro.dist.checkpoint import (
    Checkpoint,
    CheckpointStore,
    InMemoryCheckpointStore,
)
from repro.dist.faults import (
    FaultPlan,
    InjectedFault,
    MessageDuplication,
    MessageLoss,
)
from repro.dist.partitioned import Partitioner, ShardMap
from repro.dist.resilience import (
    RecoveryEvent,
    RecoverySupervisor,
    RetryPolicy,
)
from repro.dist.worker import Worker, WorkerStepResult
from repro.graphs.adjacency import Graph, Vertex
from repro.obs import (
    check_deadline,
    current_deadline,
    get_registry,
    is_enabled,
    span,
)


@dataclass(frozen=True)
class DistSuperstepStats:
    """Observability record for one distributed superstep."""

    superstep: int
    active_vertices: int
    messages_sent: int
    messages_local: int
    messages_routed: int
    messages_combined: int
    aggregates: dict[str, Any]


@dataclass
class DistributedResult:
    """Final vertex values plus the distributed execution trace."""

    values: dict[Vertex, Any]
    supersteps: int
    stats: list[DistSuperstepStats]
    k: int
    partitioner: str
    shard_sizes: list[int]
    recoveries: int
    checkpoints_written: int
    checkpoint_bytes: int
    routing: dict[str, Any] = field(default_factory=dict)
    recovery_events: list[RecoveryEvent] = field(default_factory=list)

    def total_messages(self) -> int:
        return sum(s.messages_sent for s in self.stats)

    def replayed_supersteps(self) -> int:
        """Total supersteps re-executed across all recoveries."""
        return sum(event.replayed for event in self.recovery_events)

    def routed_messages(self) -> int:
        return sum(s.messages_routed for s in self.stats)

    def combined_messages(self) -> int:
        return sum(s.messages_combined for s in self.stats)


class Coordinator:
    """Sharded BSP executor for unchanged vertex programs."""

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        *,
        k: int = 4,
        partitioner="bfs",
        initial_value: Callable[[Vertex], Any] | Any = None,
        combiner: Combiner | None = None,
        aggregators: dict[str, Aggregator] | None = None,
        max_supersteps: int = 100,
        checkpoint_store: CheckpointStore | None = None,
        checkpoint_every: int = 1,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        seed: int = 0,
        strict: bool = False,
    ):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if strict:
            self._analyze(program, initial_value, aggregators,
                          fault_plan)
        self._graph = graph
        self._program = program
        self._aggregators = dict(aggregators or {})
        self._max_supersteps = max_supersteps
        self._checkpoint_every = checkpoint_every
        self._fault_plan = fault_plan
        self._store = checkpoint_store or InMemoryCheckpointStore()
        self.supervisor = RecoverySupervisor(self._store,
                                             policy=retry_policy)

        if isinstance(partitioner, ShardMap):
            self._shard_map: ShardMap = partitioner
            self._partitioner_name = "explicit"
        else:
            chooser = (partitioner if isinstance(partitioner, Partitioner)
                       else Partitioner(partitioner, seed=seed))
            self._shard_map = chooser.shard(graph, k)
            self._partitioner_name = chooser.name
        self.k = self._shard_map.k

        self._vertex_order = tuple(graph.vertices())
        values: dict[Vertex, Any] = {}
        for vertex in self._vertex_order:
            if callable(initial_value):
                values[vertex] = initial_value(vertex)
            else:
                values[vertex] = initial_value
        out_edges = build_out_edges(graph)

        num_vertices = graph.num_vertices()
        self.workers: list[Worker] = [
            Worker(
                index=index,
                vertices=shard,
                assignment=self._shard_map.assignment,
                program=program,
                values={v: values[v] for v in shard},
                out_edges={v: out_edges[v] for v in shard},
                combiner=combiner,
                aggregators=self._aggregators,
                num_vertices=num_vertices,
            )
            for index, shard in enumerate(self._shard_map.shards)
        ]

        self._previous_aggregates: dict[str, Any] = {}
        self.recoveries = 0
        self.checkpoints_written = 0
        self.checkpoint_bytes = 0

    @staticmethod
    def _analyze(program, initial_value, aggregators, fault_plan) -> None:
        """Strict-mode pre-flight: lint the program and spec values,
        validate the fault plan, raise
        :class:`repro.analysis.AnalysisError` on error findings.
        Findings are recorded as obs span events either way."""
        from repro.analysis import (
            AnalysisError,
            analyze_spec,
            check_fault_plan_object,
        )

        spec = PregelSpec(program=program, initial_value=initial_value,
                          aggregators=aggregators)
        report = analyze_spec(spec)
        if fault_plan is not None:
            report.extend(check_fault_plan_object(fault_plan))
        if not report.ok:
            name = getattr(program, "__name__",
                           type(program).__name__)
            raise AnalysisError(f"coordinator:{name}", report)

    # -- durability -------------------------------------------------------

    def _save_checkpoint(self, next_superstep: int) -> None:
        with span("dist.checkpoint",
                  superstep=next_superstep) as cp_span:
            checkpoint = Checkpoint(
                superstep=next_superstep,
                worker_states=[w.checkpoint_state()
                               for w in self.workers],
                previous_aggregates=dict(self._previous_aggregates))
            written = self._store.save(checkpoint)
            cp_span.set("bytes", written)
        self.checkpoints_written += 1
        self.checkpoint_bytes += written
        if is_enabled():
            registry = get_registry()
            registry.inc("dist.checkpoints")
            registry.inc("dist.checkpoint_bytes", written)
        if self._fault_plan is not None:
            fault = self._fault_plan.corruption(next_superstep)
            if fault is not None:
                self._store.corrupt(next_superstep, mode=fault.mode)
                if is_enabled():
                    get_registry().inc("dist.faults.corrupt")

    def _recover(self, fault: InjectedFault,
                 stats: list[DistSuperstepStats]) -> int:
        """Rewind every shard to the newest checkpoint that passes
        integrity validation; return the superstep to replay from.

        The :class:`~repro.dist.resilience.RecoverySupervisor` enforces
        the retry policy (escalating to ``RecoveryExhausted`` instead
        of looping), falls back past corrupt checkpoints, and rejects
        shard-count mismatches.
        """
        with span("dist.recovery", fault=str(fault),
                  fault_type=fault.fault_type,
                  superstep=getattr(fault, "superstep", -1)) as rec_span:
            checkpoint, event = self.supervisor.recover(
                fault, expected_shards=len(self.workers))
            for worker, state in zip(self.workers,
                                     checkpoint.worker_states):
                worker.restore(state)
            self._previous_aggregates = dict(
                checkpoint.previous_aggregates)
            del stats[checkpoint.superstep:]
            rec_span.set("restored_to", checkpoint.superstep)
            rec_span.set("attempt", event.attempt)
            rec_span.set("backoff_ms", event.backoff_ms)
            if event.corrupt_skipped:
                rec_span.set("corrupt_skipped",
                             list(event.corrupt_skipped))
        self.recoveries += 1
        if is_enabled():
            registry = get_registry()
            registry.inc("dist.recoveries")
            registry.inc(f"dist.faults.{fault.fault_type}")
            if event.corrupt_skipped:
                registry.inc("dist.checkpoint_corrupt",
                             len(event.corrupt_skipped))
            registry.observe("dist.recovery_ms", rec_span.duration_ms)
        return checkpoint.superstep

    # -- the superstep loop ----------------------------------------------

    def _execute_superstep(self, superstep: int) -> DistSuperstepStats:
        with span("dist.superstep", superstep=superstep) as step_span:
            results: list[WorkerStepResult] = []
            for worker in self.workers:
                delay_ms = 0.0
                if self._fault_plan is not None:
                    self._fault_plan.check(worker.name, superstep)
                    delay_ms = self._fault_plan.slow_delay(
                        worker.name, superstep)
                    if delay_ms and is_enabled():
                        get_registry().inc("dist.faults.slow")
                results.append(worker.run_superstep(
                    superstep, self._previous_aggregates,
                    injected_delay_ms=delay_ms))

            # Barrier: route sender-combined buffers, in worker order
            # then destination order — fixed, so replays are identical.
            # Pending drop/duplicate faults perturb delivery; the
            # accounting check below detects the mismatch and raises,
            # handing the superstep to the recovery supervisor.
            with span("dist.barrier", superstep=superstep) as barrier:
                # The barrier is the coordinator's cooperative yield
                # point: a DeadlineExceeded here is NOT an
                # InjectedFault, so it bypasses the recovery
                # supervisor and unwinds the whole run.
                check_deadline(f"dist.barrier:{superstep}")
                drop_budget = duplicate_budget = 0
                if self._fault_plan is not None:
                    for fault in self._fault_plan.barrier_faults(
                            superstep):
                        if fault.kind == "drop":
                            drop_budget += fault.count
                        else:
                            duplicate_budget += fault.count
                expected = sum(
                    len(msgs) for result in results
                    for buffer in result.remote.values()
                    for msgs in buffer.values())
                routed = 0
                delivered = 0
                for result in results:
                    for dest in sorted(result.remote):
                        dest_worker = self.workers[dest]
                        for target, messages in (
                                result.remote[dest].items()):
                            to_send = list(messages)
                            if drop_budget:
                                lost = min(drop_budget, len(to_send))
                                to_send = to_send[lost:]
                                drop_budget -= lost
                            if duplicate_budget and to_send:
                                extra = min(duplicate_budget,
                                            len(to_send))
                                to_send = to_send + to_send[:extra]
                                duplicate_budget -= extra
                            if to_send:
                                delivered += dest_worker.deliver(
                                    target, to_send)
                            routed += len(messages)
                barrier.set("messages_routed", routed)
                if delivered < expected:
                    raise MessageLoss(superstep, expected, delivered)
                if delivered > expected:
                    raise MessageDuplication(superstep, expected,
                                             delivered)

                merged = {name: identity for name, (_, identity)
                          in self._aggregators.items()}
                for result in results:
                    for name, partial in result.aggregates.items():
                        reduce_fn = self._aggregators[name][0]
                        merged[name] = reduce_fn(merged[name], partial)
                self._previous_aggregates = merged

            stats = DistSuperstepStats(
                superstep=superstep,
                active_vertices=sum(r.active_vertices for r in results),
                messages_sent=sum(r.messages_sent for r in results),
                messages_local=sum(r.messages_local for r in results),
                messages_routed=sum(r.messages_routed for r in results),
                messages_combined=sum(r.messages_combined
                                      for r in results),
                aggregates=merged)
            step_span.set("active_vertices", stats.active_vertices)
            step_span.set("messages_routed", stats.messages_routed)
            step_span.set("messages_combined", stats.messages_combined)
        if is_enabled():
            registry = get_registry()
            registry.inc("dist.supersteps")
            registry.inc("dist.messages_local", stats.messages_local)
            registry.inc("dist.messages_routed", stats.messages_routed)
            registry.inc("dist.messages_combined",
                         stats.messages_combined)
            registry.observe("dist.superstep_ms", step_span.duration_ms)
        return stats

    def run(self) -> DistributedResult:
        """Execute to completion, surviving planned worker kills."""
        with span("dist.run", k=self.k,
                  partitioner=self._partitioner_name,
                  vertices=self._graph.num_vertices()) as run_span:
            result = self._run_supersteps()
            run_span.set("supersteps", result.supersteps)
            run_span.set("recoveries", result.recoveries)
            run_span.set("messages_routed", result.routed_messages())
        if is_enabled():
            from repro.obs.memory import record_memory_gauges

            record_memory_gauges(prefix="dist.mem")
        return result

    def _run_supersteps(self) -> DistributedResult:
        stats: list[DistSuperstepStats] = []
        self._save_checkpoint(0)  # recovery floor for superstep-0 kills
        deadline = current_deadline()
        superstep = 0
        while True:
            if deadline is not None:
                deadline.check(f"dist.superstep:{superstep}")
            if not any(w.has_active() for w in self.workers):
                break
            if superstep >= self._max_supersteps:
                raise PregelError(
                    f"computation did not finish within "
                    f"{self._max_supersteps} supersteps")
            try:
                stats.append(self._execute_superstep(superstep))
                self.supervisor.note_progress()
            except InjectedFault as fault:
                superstep = self._recover(fault, stats)
                continue
            if (superstep + 1) % self._checkpoint_every == 0:
                self._save_checkpoint(superstep + 1)
            superstep += 1

        values = {
            vertex: self.workers[self._shard_map.shard_of(vertex)]
            .values[vertex]
            for vertex in self._vertex_order
        }
        return DistributedResult(
            values=values,
            supersteps=superstep,
            stats=stats,
            k=self.k,
            partitioner=self._partitioner_name,
            shard_sizes=self._shard_map.shard_sizes(),
            recoveries=self.recoveries,
            checkpoints_written=self.checkpoints_written,
            checkpoint_bytes=self.checkpoint_bytes,
            routing=self._shard_map.routing_stats(self._graph),
            recovery_events=list(self.supervisor.events))


def run_distributed_pregel(
    graph: Graph,
    spec_or_program: PregelSpec | VertexProgram,
    *,
    k: int = 4,
    partitioner="bfs",
    checkpoint_store: CheckpointStore | None = None,
    checkpoint_every: int = 1,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    seed: int = 0,
    strict: bool = False,
    **engine_kwargs: Any,
) -> DistributedResult:
    """One-shot convenience mirroring :func:`repro.dgps.run_pregel`.

    Accepts either a :class:`~repro.dgps.pregel.PregelSpec` (the
    executor-independent bundles built by
    :func:`repro.dgps.algorithms.pagerank_spec` etc.) or a bare program
    plus the usual ``initial_value`` / ``combiner`` / ``aggregators`` /
    ``max_supersteps`` keywords; explicit keywords override spec fields.
    """
    config: dict[str, Any] = {}
    if isinstance(spec_or_program, PregelSpec):
        program = spec_or_program.program
        config = {
            "initial_value": spec_or_program.initial_value,
            "combiner": spec_or_program.combiner,
            "aggregators": spec_or_program.aggregators,
            "max_supersteps": spec_or_program.max_supersteps,
        }
    else:
        program = spec_or_program
    config.update(engine_kwargs)
    return Coordinator(
        graph, program, k=k, partitioner=partitioner,
        checkpoint_store=checkpoint_store,
        checkpoint_every=checkpoint_every,
        fault_plan=fault_plan, retry_policy=retry_policy,
        seed=seed, strict=strict, **config).run()
