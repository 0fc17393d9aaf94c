"""Shard assignment for the distributed runtime.

A :class:`ShardMap` is the frozen outcome of partitioning a graph for
k workers: which shard every vertex lives on, and each shard's vertex
list in *global* graph order (so a worker iterating its shard visits
vertices in the same relative order the single-machine engine would —
the property that keeps distributed supersteps deterministic).

The :class:`Partitioner` adapter turns the heuristics from
:mod:`repro.algorithms.partitioning` (plus a hash baseline) into shard
maps; quality of a map is judged by the same metrics the ablation bench
uses — ``edge_cut``, ``balance`` and ``communication_volume``, the last
being the quantity sender-side combining actually pays for.

A :class:`Graph` keeps the last shard map a built-in strategy made for
it, with its routing stats, until its ``version`` moves, so repeated
runs on an unchanged graph partition it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.algorithms.partitioning import (
    Partition,
    balance,
    communication_volume,
    edge_cut,
    partition_graph,
    random_partition,
)
from repro.graphs.adjacency import Graph, Vertex


def hash_partition(graph, k: int, seed: int = 0) -> Partition:
    """Stateless assignment by hashing the vertex's repr.

    The scheme real sharded stores default to: no graph structure
    consulted, perfectly cheap, usually the worst cut. ``repr`` rather
    than ``hash`` so the assignment is stable across interpreter runs
    (Python salts string hashes per process).
    """
    def bucket(vertex: Vertex) -> int:
        text = repr((seed, vertex))
        code = 0
        for char in text:
            code = (code * 131 + ord(char)) % 1_000_000_007
        return code % k

    return {vertex: bucket(vertex) for vertex in graph.vertices()}


#: Fraction of vertices :func:`degree_skewed_partition` piles onto
#: shard 0. At 0.7 with k=4 the heavy shard carries ~2.8x the mean
#: load, comfortably past the timeline's 1.5 skew-flag threshold.
SKEW_HEAVY_FRACTION = 0.7


def degree_skewed_partition(graph, k: int, seed: int = 0,
                            heavy_fraction: float = SKEW_HEAVY_FRACTION,
                            ) -> Partition:
    """An *intentionally* imbalanced assignment: the highest-degree
    ``heavy_fraction`` of vertices all land on shard 0, the rest
    round-robin over the remaining shards.

    This is the pathological partition the timeline's skew analysis
    exists to catch — one shard owns the hubs and every superstep
    stalls at the barrier waiting for it. Used by the skew section of
    ``python -m repro.dist.report`` and as a straggler fixture in
    tests; never a good idea in production.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ordered = sorted(
        graph.vertices(),
        key=lambda v: (-graph.degree(v), repr(v)))  # deterministic
    if k == 1:
        return {v: 0 for v in ordered}
    heavy = max(1, round(heavy_fraction * len(ordered)))
    assignment: Partition = {}
    for i, vertex in enumerate(ordered):
        if i < heavy:
            assignment[vertex] = 0
        else:
            assignment[vertex] = 1 + (i - heavy) % (k - 1)
    return assignment


#: name -> callable(graph, k, seed) -> Partition
PARTITION_STRATEGIES: dict[str, Callable[..., Partition]] = {
    "bfs": partition_graph,
    "random": random_partition,
    "hash": hash_partition,
    "degree_skew": degree_skewed_partition,
}


@dataclass(frozen=True)
class ShardMap:
    """Vertex-to-shard assignment plus per-shard vertex lists.

    ``shards[i]`` holds shard i's vertices in global graph order;
    shards may be empty when the partitioner used fewer than k parts.
    A cached map is shared by every run on the same graph version, so
    treat ``assignment`` as read-only.
    """

    k: int
    assignment: Mapping[Vertex, int]
    shards: tuple[tuple[Vertex, ...], ...]

    def shard_of(self, vertex: Vertex) -> int:
        return self.assignment[vertex]

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self.assignment

    def num_vertices(self) -> int:
        return len(self.assignment)

    def shard_sizes(self) -> list[int]:
        return [len(shard) for shard in self.shards]

    def routing_stats(self, graph: Graph) -> dict[str, Any]:
        """The cost metrics shard routing pays on this graph (computed
        once per cached shard map; each call returns a fresh copy)."""
        entry = graph._shards if isinstance(graph, Graph) else None
        if (entry is None or entry.shard_map is not self
                or entry.key[0] != graph.version):
            return self._routing_stats(graph)
        if entry.routing is None:
            entry.routing = self._routing_stats(graph)
        stats = entry.routing
        return {**stats, "shard_sizes": list(stats["shard_sizes"])}

    def _routing_stats(self, graph) -> dict[str, Any]:
        partition = dict(self.assignment)
        return {
            "k": self.k,
            "shard_sizes": self.shard_sizes(),
            "edge_cut": edge_cut(graph, partition),
            "balance": balance(partition, self.k),
            "communication_volume": communication_volume(graph, partition),
        }


@dataclass
class _CachedShards:
    """The one shard map a :class:`Graph` keeps in ``graph._shards``."""

    key: tuple[int, str, int, int]  # (version, strategy, k, seed)
    shard_map: ShardMap
    routing: dict[str, Any] | None = None


def shard_map_from_assignment(assignment: Partition, k: int,
                              vertex_order) -> ShardMap:
    """Freeze an explicit vertex->part dict into a :class:`ShardMap`.

    ``vertex_order`` fixes the global order shards preserve (normally
    ``graph.vertices()``).
    """
    shards: list[list[Vertex]] = [[] for _ in range(k)]
    ordered = list(vertex_order)
    for vertex in ordered:
        part = assignment[vertex]
        if not 0 <= part < k:
            raise ValueError(
                f"vertex {vertex!r} assigned to part {part}, "
                f"outside 0..{k - 1}")
        shards[part].append(vertex)
    if len(assignment) != len(ordered):
        missing = set(assignment) ^ set(ordered)
        raise ValueError(
            f"assignment does not cover the graph exactly "
            f"(mismatched vertices: {sorted(map(repr, missing))[:5]})")
    return ShardMap(
        k=k,
        assignment=dict(assignment),
        shards=tuple(tuple(shard) for shard in shards))


class Partitioner:
    """Adapter from partitioning heuristics to shard maps.

    ``strategy`` is a name from :data:`PARTITION_STRATEGIES`, a callable
    ``(graph, k, seed) -> Partition``, or an explicit vertex->part dict
    (used as-is). Only named strategies on a :class:`Graph` reuse the
    graph's cached shard map.
    """

    def __init__(self, strategy: str | Callable[..., Partition]
                 | Partition = "bfs", seed: int = 0):
        self.seed = seed
        self._explicit: Partition | None = None
        self._builtin = isinstance(strategy, str)
        if self._builtin:
            try:
                self._strategy = PARTITION_STRATEGIES[strategy]
            except KeyError:
                raise ValueError(
                    f"unknown partition strategy {strategy!r}; "
                    f"known: {sorted(PARTITION_STRATEGIES)}") from None
            self.name = strategy
        elif isinstance(strategy, Mapping):
            self._strategy = None
            self._explicit = dict(strategy)
            self.name = "explicit"
        elif callable(strategy):
            self._strategy = strategy
            self.name = getattr(strategy, "__name__", "custom")
        else:
            raise TypeError(
                "strategy must be a name, a callable, or an "
                "assignment mapping")

    def shard(self, graph: Graph, k: int) -> ShardMap:
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._explicit is not None:
            return shard_map_from_assignment(self._explicit, k,
                                             graph.vertices())
        cacheable = self._builtin and isinstance(graph, Graph)
        if cacheable:
            # The version is read before building, as CSRGraph.of does:
            # a mutation racing the build can only cause a later miss.
            key = (graph.version, self.name, k, self.seed)
            entry = graph._shards
            if entry is not None and entry.key == key:
                return entry.shard_map
        assignment = self._strategy(graph, k, seed=self.seed)
        shard_map = shard_map_from_assignment(assignment, k,
                                              graph.vertices())
        if cacheable:
            graph._shards = _CachedShards(key, shard_map)
        return shard_map


def build_shard_map(graph: Graph, k: int,
                    strategy: str | Callable[..., Partition]
                    | Partition = "bfs",
                    seed: int = 0) -> ShardMap:
    """One-shot convenience: partition ``graph`` into k shards."""
    return Partitioner(strategy, seed=seed).shard(graph, k)
