"""The core in-memory graph: directed or undirected, simple or multigraph.

The survey's Table 7 shows all four topology combinations in real use, so
:class:`Graph` supports every combination behind one API. Edges are stored
centrally by integer id with adjacency indexes on both endpoints, giving
O(1) edge counting, cheap removal, and first-class parallel edges.

Vertices are arbitrary hashable values. Edge weights default to 1.0; the
algorithms treat them as costs (paths, MST) or capacities as documented.

Each adjacency bucket is an immutable tuple of edge ids rather than a
set: a tuple of ints drops out of the garbage collector's tracking, so a
resident graph costs the collector little beyond its edge records, which
are slotted (no per-edge ``__dict__``). The
topology ``version`` lets :meth:`repro.graphs.csr.CSRGraph.of` reuse one
array snapshot until the next structural change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from repro.errors import EdgeNotFound, ParallelEdgeError, VertexNotFound

Vertex = Hashable


@dataclass(frozen=True, slots=True)
class Edge:
    """An edge record: endpoints, id, and weight.

    For undirected graphs ``u``/``v`` preserve insertion order but the edge
    is traversable both ways.
    """

    edge_id: int
    u: Vertex
    v: Vertex
    weight: float = 1.0

    def other(self, vertex: Vertex) -> Vertex:
        """The endpoint opposite to ``vertex``."""
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"{vertex!r} is not an endpoint of {self!r}")


class Graph:
    """Adjacency-indexed graph.

    Args:
        directed: if False, every edge is traversable both ways.
        multigraph: if False, adding a second edge between the same pair
            (same direction for directed graphs) raises
            :class:`~repro.errors.ParallelEdgeError`.
    """

    def __init__(self, directed: bool = True, multigraph: bool = False):
        self._directed = directed
        self._multigraph = multigraph
        self._edges: dict[int, Edge] = {}
        self._next_edge_id = 0
        # vertex -> neighbor -> tuple of edge ids
        self._out: dict[Vertex, dict[Vertex, tuple[int, ...]]] = {}
        self._in: dict[Vertex, dict[Vertex, tuple[int, ...]]] = {}
        self._version = 0
        # Version-keyed caches, never copied or pickled: the
        # (version, CSRGraph) kept by CSRGraph.of, and the last shard map
        # repro.dist.partitioned built for this graph.
        self._snapshot = None
        self._shards = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_snapshot"] = state["_shards"] = None
        return state

    # -- basic properties -------------------------------------------------

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def multigraph(self) -> bool:
        return self._multigraph

    @property
    def version(self) -> int:
        """Topology counter, bumped after every structural mutation
        (property and label writes leave it alone)."""
        return self._version

    def num_vertices(self) -> int:
        return len(self._out)

    def num_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._out

    def __len__(self) -> int:
        return len(self._out)

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        multi = "multigraph" if self._multigraph else "simple"
        return (f"<{type(self).__name__} {kind} {multi} "
                f"V={self.num_vertices()} E={self.num_edges()}>")

    # -- mutation ----------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> Vertex:
        """Add a vertex (idempotent). Returns the vertex."""
        if vertex not in self._out:
            self._out[vertex] = {}
            self._in[vertex] = {}
            self._version += 1
        return vertex

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        for vertex in vertices:
            self.add_vertex(vertex)

    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> int:
        """Add an edge and return its id; endpoints are added as needed."""
        self.add_vertex(u)
        self.add_vertex(v)
        if not self._multigraph and v in self._out[u]:
            raise ParallelEdgeError(
                f"simple graph already has an edge {u!r} -> {v!r}")
        edge_id = self._next_edge_id
        self._next_edge_id += 1
        self._edges[edge_id] = Edge(edge_id=edge_id, u=u, v=v, weight=weight)
        _link(self._out[u], v, edge_id)
        _link(self._in[v], u, edge_id)
        if not self._directed and u != v:
            _link(self._out[v], u, edge_id)
            _link(self._in[u], v, edge_id)
        self._version += 1
        return edge_id

    def add_edges(self, pairs: Iterable[tuple[Vertex, Vertex]]) -> list[int]:
        return [self.add_edge(u, v) for u, v in pairs]

    def remove_edge(self, edge_id: int) -> Edge:
        """Remove an edge by id and return its record."""
        try:
            edge = self._edges.pop(edge_id)
        except KeyError:
            raise EdgeNotFound(f"id {edge_id}") from None
        _unlink(self._out[edge.u], edge.v, edge_id)
        _unlink(self._in[edge.v], edge.u, edge_id)
        if not self._directed and edge.u != edge.v:
            _unlink(self._out[edge.v], edge.u, edge_id)
            _unlink(self._in[edge.u], edge.v, edge_id)
        self._version += 1
        return edge

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove a vertex and every incident edge."""
        if vertex not in self._out:
            raise VertexNotFound(vertex)
        incident = {eid for bucket in self._out[vertex].values()
                    for eid in bucket}
        incident |= {eid for bucket in self._in[vertex].values()
                     for eid in bucket}
        for edge_id in incident:
            self.remove_edge(edge_id)
        del self._out[vertex]
        del self._in[vertex]
        self._version += 1

    # -- access ------------------------------------------------------------

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._out)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def edge(self, edge_id: int) -> Edge:
        try:
            return self._edges[edge_id]
        except KeyError:
            raise EdgeNotFound(f"id {edge_id}") from None

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """True iff an edge u->v exists (either direction if undirected)."""
        return u in self._out and v in self._out[u]

    def edge_ids(self, u: Vertex, v: Vertex) -> frozenset[int]:
        """Ids of all parallel edges u->v (empty frozenset when none)."""
        if u not in self._out:
            raise VertexNotFound(u)
        return frozenset(self._out[u].get(v, ()))

    def edge_weight(self, u: Vertex, v: Vertex) -> float:
        """Minimum weight among parallel edges u->v.

        Taking the minimum makes weighted algorithms (Dijkstra, MST) treat
        a multigraph like its cheapest simple projection.
        """
        ids = self.edge_ids(u, v)
        if not ids:
            raise EdgeNotFound(f"{u!r} -> {v!r}")
        return min(self._edges[eid].weight for eid in ids)

    def out_neighbors(self, vertex: Vertex) -> Iterator[Vertex]:
        """Successors (all neighbors for undirected graphs)."""
        try:
            return iter(self._out[vertex])
        except KeyError:
            raise VertexNotFound(vertex) from None

    def in_neighbors(self, vertex: Vertex) -> Iterator[Vertex]:
        """Predecessors (all neighbors for undirected graphs)."""
        try:
            return iter(self._in[vertex])
        except KeyError:
            raise VertexNotFound(vertex) from None

    def neighbors(self, vertex: Vertex) -> Iterator[Vertex]:
        """Out- and in-neighbors combined, each reported once."""
        if vertex not in self._out:
            raise VertexNotFound(vertex)
        out = self._out[vertex]
        yield from out
        # Undirected buckets mirror each other, so only a directed graph
        # can have predecessors that are not also successors.
        if self._directed:
            for u in self._in[vertex]:
                if u not in out:
                    yield u

    def out_degree(self, vertex: Vertex) -> int:
        """Number of outgoing edges (counting parallel edges)."""
        if vertex not in self._out:
            raise VertexNotFound(vertex)
        return sum(len(bucket) for bucket in self._out[vertex].values())

    def in_degree(self, vertex: Vertex) -> int:
        if vertex not in self._in:
            raise VertexNotFound(vertex)
        return sum(len(bucket) for bucket in self._in[vertex].values())

    def degree(self, vertex: Vertex) -> int:
        """Total degree. Undirected self-loops count twice, as usual."""
        if self._directed:
            return self.out_degree(vertex) + self.in_degree(vertex)
        loops = len(self._out[vertex].get(vertex, ()))
        return self.out_degree(vertex) + loops

    def incident_edges(self, vertex: Vertex) -> Iterator[Edge]:
        """All edges touching a vertex (out then in, deduplicated)."""
        if vertex not in self._out:
            raise VertexNotFound(vertex)
        seen: set[int] = set()
        for bucket in self._out[vertex].values():
            for edge_id in bucket:
                if edge_id not in seen:
                    seen.add(edge_id)
                    yield self._edges[edge_id]
        for bucket in self._in[vertex].values():
            for edge_id in bucket:
                if edge_id not in seen:
                    seen.add(edge_id)
                    yield self._edges[edge_id]

    # -- derived graphs ----------------------------------------------------

    def copy(self) -> "Graph":
        clone = type(self)(directed=self._directed,
                           multigraph=self._multigraph)
        clone.add_vertices(self.vertices())
        for edge in self.edges():
            clone.add_edge(edge.u, edge.v, weight=edge.weight)
        return clone

    def reverse(self) -> "Graph":
        """Edge-reversed copy (identity for undirected graphs)."""
        clone = Graph(directed=self._directed, multigraph=self._multigraph)
        clone.add_vertices(self.vertices())
        for edge in self.edges():
            if self._directed:
                clone.add_edge(edge.v, edge.u, weight=edge.weight)
            else:
                clone.add_edge(edge.u, edge.v, weight=edge.weight)
        return clone

    def to_undirected(self) -> "Graph":
        """Undirected projection; parallel directed edges are preserved
        only when this graph is a multigraph, otherwise merged."""
        clone = Graph(directed=False, multigraph=self._multigraph)
        clone.add_vertices(self.vertices())
        seen_pairs: set[frozenset] = set()
        for edge in self.edges():
            if not self._multigraph:
                pair = frozenset((edge.u, edge.v))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
            clone.add_edge(edge.u, edge.v, weight=edge.weight)
        return clone

    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Induced subgraph on the given vertices."""
        keep = set(vertices)
        missing = [v for v in keep if v not in self._out]
        if missing:
            raise VertexNotFound(missing[0])
        clone = Graph(directed=self._directed, multigraph=self._multigraph)
        clone.add_vertices(keep)
        for edge in self.edges():
            if edge.u in keep and edge.v in keep:
                clone.add_edge(edge.u, edge.v, weight=edge.weight)
        return clone


def _link(index: dict[Vertex, tuple[int, ...]], key: Vertex,
          edge_id: int) -> None:
    index[key] = index.get(key, ()) + (edge_id,)


def _unlink(index: dict[Vertex, tuple[int, ...]], key: Vertex,
            edge_id: int) -> None:
    rest = tuple(eid for eid in index[key] if eid != edge_id)
    if rest:
        index[key] = rest
    else:
        del index[key]


def graph_from_edges(
    pairs: Iterable[tuple[Vertex, Vertex]],
    directed: bool = True,
    multigraph: bool = False,
) -> Graph:
    """Convenience constructor from an edge list."""
    graph = Graph(directed=directed, multigraph=multigraph)
    for u, v in pairs:
        graph.add_edge(u, v)
    return graph
