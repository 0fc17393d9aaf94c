"""PageRank and personalized PageRank (Table 9 "Ranking & Centrality").

Power iteration over a CSR snapshot with dangling-mass redistribution.
Weighted variants split a vertex's rank across out-edges proportionally
to edge weight.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import ConvergenceError, VertexNotFound
from repro.graphs.adjacency import Graph, Vertex
from repro.graphs.csr import CSRGraph


def pagerank(
    graph: Graph | CSRGraph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
    weighted: bool = False,
    personalization: Mapping[Vertex, float] | None = None,
) -> dict[Vertex, float]:
    """PageRank scores summing to 1.

    Args:
        graph: a :class:`Graph` (snapshotted internally through
            :meth:`CSRGraph.of`, so repeat calls on an unchanged graph
            reuse one snapshot) or a prebuilt :class:`CSRGraph`.
        damping: probability of following an edge vs teleporting.
        tol: L1 convergence threshold.
        max_iter: iteration budget; exceeded budget raises
            :class:`~repro.errors.ConvergenceError`.
        weighted: split rank proportionally to edge weights.
        personalization: teleport distribution over vertices (normalized
            internally); uniform when omitted.
    """
    if not 0 <= damping < 1:
        raise ValueError("damping must be in [0, 1)")
    csr = CSRGraph.of(graph)
    n = csr.num_vertices()
    if n == 0:
        return {}

    teleport = _teleport_vector(csr, personalization)
    rank = np.full(n, 1.0 / n)
    sources = csr.row_ids()
    out_weight = _out_strength(csr, sources, weighted)
    dangling = out_weight == 0

    for _ in range(max_iter):
        scale = np.divide(rank, out_weight, out=np.zeros(n), where=~dangling)
        # bincount adds the pushes in CSR order, row by row, so every
        # score is summed in a fixed order.
        pushed = scale[sources]
        if weighted:
            pushed *= csr.weights
        new_rank = np.bincount(csr.indices, weights=pushed, minlength=n)
        dangling_mass = rank[dangling].sum()
        new_rank = (damping * (new_rank + dangling_mass * teleport)
                    + (1 - damping) * teleport)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < tol:
            return csr.labels_to_vertices(rank)
    raise ConvergenceError(
        f"pagerank did not converge in {max_iter} iterations (delta={delta})")


def _teleport_vector(csr: CSRGraph, personalization) -> np.ndarray:
    n = csr.num_vertices()
    if personalization is None:
        return np.full(n, 1.0 / n)
    vector = np.zeros(n)
    for vertex, mass in personalization.items():
        if mass < 0:
            raise ValueError("personalization masses must be >= 0")
        vector[csr.index(vertex)] = mass
    total = vector.sum()
    if total <= 0:
        raise ValueError("personalization must have positive total mass")
    return vector / total


def _out_strength(csr: CSRGraph, row_ids: np.ndarray,
                  weighted: bool) -> np.ndarray:
    n = csr.num_vertices()
    if not weighted:
        return np.diff(csr.indptr).astype(np.float64)
    return np.bincount(row_ids, weights=csr.weights, minlength=n)


def top_ranked(scores: Mapping[Vertex, float], k: int) -> list[Vertex]:
    """The k highest-scoring vertices, ties broken by repr for stability."""
    return sorted(scores, key=lambda v: (-scores[v], repr(v)))[:k]


def personalized_pagerank(
    graph: Graph | CSRGraph,
    seeds: Mapping[Vertex, float] | list[Vertex],
    damping: float = 0.85,
    **kwargs,
) -> dict[Vertex, float]:
    """PageRank with teleportation restricted to seed vertices."""
    if isinstance(seeds, Mapping):
        personalization = dict(seeds)
    else:
        if not seeds:
            raise ValueError("seeds must be non-empty")
        personalization = {vertex: 1.0 for vertex in seeds}
    if not personalization:
        raise ValueError("seeds must be non-empty")
    for vertex in personalization:
        if isinstance(graph, Graph) and vertex not in graph:
            raise VertexNotFound(vertex)
    return pagerank(graph, damping=damping,
                    personalization=personalization, **kwargs)
