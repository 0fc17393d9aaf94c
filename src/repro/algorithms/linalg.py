"""Graph algorithms as linear algebra (the Table 12 "Linear Algebra
Library / Software" class).

The paper's conclusion points to the "ongoing effort to develop a
standard set of linear algebra operations for expressing graph
algorithms" (GraphBLAS). This module implements that style on scipy
sparse matrices: a small semiring abstraction plus the classic kernels --
BFS levels via boolean matrix-vector products, SSSP via min-plus
products, PageRank via plus-times iteration, and triangle counting via
``A^2 .* A``. Each is tested for equivalence against the direct
implementations in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.graphs.adjacency import Graph, Vertex
from repro.graphs.csr import CSRGraph


def adjacency_matrix(graph: Graph | CSRGraph,
                     ) -> tuple[sp.csr_matrix, list[Vertex]]:
    """The weighted adjacency matrix A with A[i, j] = weight(i -> j),
    plus the vertex order the indices refer to. Parallel edges keep the
    minimum weight (matching ``Graph.edge_weight``)."""
    csr = CSRGraph.of(graph)
    n = csr.num_vertices()
    matrix = sp.csr_matrix(
        (csr.weights, csr.indices, csr.indptr), shape=(n, n))
    # Collapse parallel entries to the minimum weight.
    matrix = matrix.tocoo()
    if len(matrix.data):
        order = np.lexsort((matrix.data, matrix.col, matrix.row))
        rows, cols, data = (matrix.row[order], matrix.col[order],
                            matrix.data[order])
        keep = np.ones(len(data), dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        matrix = sp.csr_matrix(
            (data[keep], (rows[keep], cols[keep])), shape=(n, n))
    else:
        matrix = matrix.tocsr()
    return matrix, list(csr.vertex_order)


@dataclass(frozen=True)
class Semiring:
    """A GraphBLAS-style semiring: (add, add-identity, multiply)."""

    name: str
    add: Callable[[np.ndarray, np.ndarray], np.ndarray]
    zero: float
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def vxm(self, vector: np.ndarray, matrix: sp.csr_matrix) -> np.ndarray:
        """vector-times-matrix over this semiring (dense vector)."""
        n = matrix.shape[0]
        result = np.full(n, self.zero, dtype=np.float64)
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
        for i in range(n):
            x = vector[i]
            if x == self.zero:
                continue
            row = slice(indptr[i], indptr[i + 1])
            contributions = self.multiply(x, data[row])
            cols = indices[row]
            result[cols] = self.add(result[cols], contributions)
        return result


PLUS_TIMES = Semiring("plus_times", add=np.add, zero=0.0,
                      multiply=lambda x, w: x * w)
MIN_PLUS = Semiring("min_plus", add=np.minimum, zero=np.inf,
                    multiply=lambda x, w: x + w)
OR_AND = Semiring("or_and", add=np.logical_or, zero=0.0,
                  multiply=lambda x, w: np.logical_and(x, w != 0))


def bfs_levels_matrix(graph: Graph, source: Vertex) -> dict[Vertex, int]:
    """BFS levels via repeated boolean vector-matrix products over the
    OR-AND semiring (the GraphBLAS BFS idiom)."""
    matrix, order = adjacency_matrix(graph)
    index_of = {v: i for i, v in enumerate(order)}
    n = len(order)
    levels = np.full(n, -1, dtype=np.int64)
    frontier = np.zeros(n, dtype=np.float64)
    frontier[index_of[source]] = 1.0
    levels[index_of[source]] = 0
    level = 0
    while frontier.any():
        level += 1
        reached = OR_AND.vxm(frontier, matrix).astype(bool)
        new = reached & (levels < 0)
        levels[new] = level
        frontier = new.astype(np.float64)
    return {order[i]: int(levels[i]) for i in range(n) if levels[i] >= 0}


def sssp_matrix(graph: Graph, source: Vertex) -> dict[Vertex, float]:
    """Bellman-Ford as repeated min-plus vector-matrix products."""
    matrix, order = adjacency_matrix(graph)
    index_of = {v: i for i, v in enumerate(order)}
    n = len(order)
    distances = np.full(n, np.inf)
    distances[index_of[source]] = 0.0
    for _ in range(max(1, n - 1)):
        relaxed = np.minimum(distances, MIN_PLUS.vxm(distances, matrix))
        if np.array_equal(relaxed, distances):
            break
        distances = relaxed
    return {order[i]: float(distances[i])
            for i in range(n) if np.isfinite(distances[i])}


def pagerank_matrix(
    graph: Graph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> dict[Vertex, float]:
    """PageRank as plus-times iteration on the column-stochastic matrix."""
    matrix, order = adjacency_matrix(graph)
    n = len(order)
    if n == 0:
        return {}
    # Row-normalize: each vertex splits rank equally among out-edges
    # (unweighted semantics, matching repro.algorithms.pagerank).
    binary = matrix.copy()
    binary.data = np.ones_like(binary.data)
    out_degree = np.asarray(binary.sum(axis=1)).ravel()
    dangling = out_degree == 0
    scale = np.divide(1.0, out_degree, out=np.zeros(n), where=~dangling)
    transition = sp.diags(scale) @ binary
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        new_rank = (damping * (PLUS_TIMES.vxm(rank, transition.tocsr())
                               + rank[dangling].sum() / n)
                    + (1 - damping) / n)
        if np.abs(new_rank - rank).sum() < tol:
            rank = new_rank
            break
        rank = new_rank
    return {order[i]: float(rank[i]) for i in range(n)}


def triangle_count_matrix(graph: Graph) -> int:
    """Triangles via ``trace(A @ A .* A) / 6`` on the symmetrized
    unweighted adjacency (self-loops removed)."""
    matrix, _ = adjacency_matrix(graph)
    matrix = matrix.tolil()
    matrix.setdiag(0)
    matrix = matrix.tocsr()
    matrix.eliminate_zeros()
    matrix.data = np.ones_like(matrix.data)
    symmetric = matrix.maximum(matrix.T)
    squared = symmetric @ symmetric
    hadamard = squared.multiply(symmetric)
    return int(hadamard.sum()) // 6


def matrix_power_reachability(graph: Graph, k: int) -> sp.csr_matrix:
    """Boolean reachability within exactly <= k steps: OR of A^1..A^k."""
    matrix, _ = adjacency_matrix(graph)
    matrix.data = np.ones_like(matrix.data)
    reach = matrix.copy()
    power = matrix.copy()
    for _ in range(k - 1):
        power = (power @ matrix).sign()
        reach = reach.maximum(power)
    return reach.sign()


def degree_vector(graph: Graph) -> dict[Vertex, int]:
    """Out-degrees as A @ 1 (unweighted)."""
    matrix, order = adjacency_matrix(graph)
    binary = matrix.copy()
    binary.data = np.ones_like(binary.data)
    degrees = np.asarray(binary.sum(axis=1)).ravel()
    return {order[i]: int(degrees[i]) for i in range(len(order))}
