"""Compressed-sparse-row snapshot of a graph for numpy analytics.

Iterative whole-graph computations (PageRank, spectral clustering, label
propagation at scale) are much faster on flat arrays than on dict
adjacency. :class:`CSRGraph` freezes a :class:`~repro.graphs.adjacency.
Graph` into indptr/indices/weights arrays plus a vertex <-> index mapping.
:meth:`CSRGraph.of` is how kernels get one: it keeps one snapshot per
graph and reuses it until the graph's topology ``version`` moves.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import VertexNotFound
from repro.graphs.adjacency import Graph, Vertex


class CSRGraph:
    """Immutable CSR adjacency over integer vertex indices."""

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        vertex_order: Sequence[Vertex],
        directed: bool,
    ):
        if indptr.ndim != 1 or indices.ndim != 1 or weights.ndim != 1:
            raise ValueError("CSR arrays must be one-dimensional")
        if len(indices) != len(weights):
            raise ValueError("indices and weights must align")
        if len(indptr) != len(vertex_order) + 1:
            raise ValueError("indptr must have num_vertices + 1 entries")
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.vertex_order = list(vertex_order)
        self.directed = directed
        self._index_of = {v: i for i, v in enumerate(self.vertex_order)}

    # -- construction --------------------------------------------------

    @classmethod
    def of(cls, graph) -> "CSRGraph":
        """The snapshot of ``graph`` at its current topology version.

        A :class:`Graph` keeps the last snapshot and gets it back until
        its ``version`` moves. The version is read before building, so a
        mutation racing the build can only cause a later miss, never a
        stale hit. A ``CSRGraph`` is returned as is; other graph-likes
        (filtered views) have no version and get a fresh build.
        """
        if isinstance(graph, CSRGraph):
            return graph
        if not isinstance(graph, Graph):
            return cls.from_graph(graph)
        version = graph.version
        cached = graph._snapshot
        if cached is not None and cached[0] == version:
            return cached[1]
        csr = cls.from_graph(graph)
        # Every caller shares these arrays until the next mutation.
        for array in (csr.indptr, csr.indices, csr.weights):
            array.flags.writeable = False
        graph._snapshot = (version, csr)
        return csr

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot a graph. Undirected edges appear in both rows."""
        order = list(graph.vertices())
        index_of = {v: i for i, v in enumerate(order)}
        us, vs, ws = [], [], []
        for edge in graph.edges():
            us.append(index_of[edge.u])
            vs.append(index_of[edge.v])
            ws.append(edge.weight)
        sources = np.array(us, dtype=np.int64)
        targets = np.array(vs, dtype=np.int64)
        weights = np.array(ws, dtype=np.float64)
        if not graph.directed:
            mirror = sources != targets
            sources, targets = (np.concatenate([sources, targets[mirror]]),
                                np.concatenate([targets, sources[mirror]]))
            weights = np.concatenate([weights, weights[mirror]])
        # Row-major, each row sorted by (target, weight).
        by_row = np.lexsort((weights, targets, sources))
        counts = np.bincount(sources, minlength=len(order))
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        indices, weights = targets[by_row], weights[by_row]
        return cls(indptr=indptr, indices=indices, weights=weights,
                   vertex_order=order, directed=graph.directed)

    @classmethod
    def from_edge_array(
        cls,
        sources: np.ndarray,
        targets: np.ndarray,
        num_vertices: int,
        weights: np.ndarray | None = None,
        directed: bool = True,
    ) -> "CSRGraph":
        """Build directly from parallel source/target index arrays."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape:
            raise ValueError("sources and targets must have the same shape")
        if weights is None:
            weights = np.ones(len(sources), dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
        if not directed:
            loop = sources == targets
            sources, targets = (
                np.concatenate([sources, targets[~loop]]),
                np.concatenate([targets, sources[~loop]]),
            )
            weights = np.concatenate([weights, weights[~loop]])
        order = np.argsort(sources, kind="stable")
        sources, targets = sources[order], targets[order]
        weights = weights[order]
        counts = np.bincount(sources, minlength=num_vertices)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(indptr=indptr.astype(np.int64), indices=targets,
                   weights=weights, vertex_order=list(range(num_vertices)),
                   directed=directed)

    # -- access ----------------------------------------------------------

    def num_vertices(self) -> int:
        return len(self.vertex_order)

    def num_edges(self) -> int:
        """Stored rows; undirected edges count once."""
        nnz = len(self.indices)
        return nnz if self.directed else (nnz + self._num_loops()) // 2

    def _num_loops(self) -> int:
        return int(np.count_nonzero(self.indices == self.row_ids()))

    def index(self, vertex: Vertex) -> int:
        try:
            return self._index_of[vertex]
        except KeyError:
            raise VertexNotFound(vertex) from None

    def vertex(self, index: int) -> Vertex:
        return self.vertex_order[index]

    def neighbors_of_index(self, index: int) -> np.ndarray:
        return self.indices[self.indptr[index]:self.indptr[index + 1]]

    def weights_of_index(self, index: int) -> np.ndarray:
        return self.weights[self.indptr[index]:self.indptr[index + 1]]

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.indices, minlength=self.num_vertices())

    def row_ids(self) -> np.ndarray:
        """The row (source index) of every stored entry."""
        return np.repeat(np.arange(self.num_vertices(), dtype=np.int64),
                         np.diff(self.indptr))

    def transpose(self) -> "CSRGraph":
        """The reverse graph (same object semantics for undirected)."""
        n = self.num_vertices()
        order = np.argsort(self.indices, kind="stable")
        new_sources = self.indices[order]
        new_targets = self.row_ids()[order]
        new_weights = self.weights[order]
        counts = np.bincount(new_sources, minlength=n)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return CSRGraph(indptr=indptr, indices=new_targets,
                        weights=new_weights, vertex_order=self.vertex_order,
                        directed=self.directed)

    def labels_to_vertices(self, values: Iterable) -> dict[Vertex, object]:
        """Zip an index-aligned result array back onto vertex ids."""
        return {self.vertex_order[i]: value
                for i, value in enumerate(values)}
