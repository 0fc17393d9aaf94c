"""Node feature extraction for graph machine learning.

The classifiers and regressors in this package operate on per-vertex
feature vectors. This module derives the standard structural features
(degree, clustering, core number, PageRank, neighbor aggregates) from a
graph, returning an index-aligned numpy matrix.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.adjacency import Graph, Vertex

FEATURE_NAMES = (
    "degree",
    "out_degree",
    "in_degree",
    "clustering",
    "core_number",
    "pagerank",
    "mean_neighbor_degree",
)


def node_features(
    graph: Graph,
    features: tuple[str, ...] = FEATURE_NAMES,
) -> tuple[list[Vertex], np.ndarray]:
    """Structural feature matrix.

    Returns ``(vertex_order, X)`` with ``X[i]`` the features of
    ``vertex_order[i]`` in the order requested.
    """
    from repro.algorithms.aggregation import clustering_coefficients
    from repro.algorithms.dense import core_numbers
    from repro.algorithms.pagerank import pagerank

    vertices = list(graph.vertices())
    columns: dict[str, dict[Vertex, float]] = {}
    if "degree" in features:
        columns["degree"] = {v: float(graph.degree(v)) for v in vertices}
    if "out_degree" in features:
        columns["out_degree"] = {
            v: float(graph.out_degree(v)) for v in vertices}
    if "in_degree" in features:
        columns["in_degree"] = {v: float(graph.in_degree(v)) for v in vertices}
    if "clustering" in features:
        columns["clustering"] = clustering_coefficients(graph)
    if "core_number" in features:
        cores = core_numbers(graph)
        columns["core_number"] = {v: float(cores[v]) for v in vertices}
    if "pagerank" in features:
        scores = pagerank(graph)
        columns["pagerank"] = {v: scores[v] for v in vertices}
    if "mean_neighbor_degree" in features:
        columns["mean_neighbor_degree"] = {
            v: _mean_neighbor_degree(graph, v) for v in vertices}

    unknown = [name for name in features if name not in columns]
    if unknown:
        raise ValueError(f"unknown features {unknown}; "
                         f"available: {FEATURE_NAMES}")
    matrix = np.array(
        [[columns[name][v] for name in features] for v in vertices],
        dtype=np.float64)
    return vertices, matrix


def _mean_neighbor_degree(graph: Graph, vertex: Vertex) -> float:
    neighbors = list(graph.neighbors(vertex))
    if not neighbors:
        return 0.0
    return sum(graph.degree(n) for n in neighbors) / len(neighbors)


def standardize(matrix: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance columns (constant columns pass through)."""
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std[std == 0] = 1.0
    return (matrix - mean) / std


def add_bias_column(matrix: np.ndarray) -> np.ndarray:
    """Prepend a column of ones for intercept terms."""
    return np.hstack([np.ones((matrix.shape[0], 1)), matrix])
