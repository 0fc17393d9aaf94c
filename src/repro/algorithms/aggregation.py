"""Graph aggregations (Table 9: "e.g., counting the number of triangles").

Triangle counting (exact, via degree-ordered wedge checks), clustering
coefficients, degree distributions, and assortativity -- the statistics
participants compute over whole graphs.
"""

from __future__ import annotations

from collections import Counter

from repro.graphs.adjacency import Graph, Vertex


def _undirected_neighbor_sets(graph) -> dict[Vertex, set[Vertex]]:
    """Neighbor sets ignoring direction, parallel edges and self-loops."""
    sets: dict[Vertex, set[Vertex]] = {v: set() for v in graph.vertices()}
    for edge in graph.edges():
        if edge.u == edge.v:
            continue
        sets[edge.u].add(edge.v)
        sets[edge.v].add(edge.u)
    return sets


def _forward_sets(neighbors) -> dict[Vertex, set[Vertex]]:
    """Orient each edge from the lower- to the higher-ranked endpoint,
    ranking by (degree, position), so every triangle is seen once."""
    rank = {v: (len(adjacent), i)
            for i, (v, adjacent) in enumerate(neighbors.items())}
    return {v: {w for w in adjacent if rank[v] < rank[w]}
            for v, adjacent in neighbors.items()}


def _count_triangles(neighbors) -> int:
    forward = _forward_sets(neighbors)
    return sum(len(out & forward[w])
               for out in forward.values() for w in out)


def _triangles_through(neighbors) -> dict[Vertex, int]:
    forward = _forward_sets(neighbors)
    counts = dict.fromkeys(neighbors, 0)
    for v, out in forward.items():
        for w in out:
            for x in out & forward[w]:
                counts[v] += 1
                counts[w] += 1
                counts[x] += 1
    return counts


def triangle_count(graph) -> int:
    """Total number of triangles (each counted once).

    Uses the degree-ordering technique: orient each edge from the
    lower-ranked to the higher-ranked endpoint and count common forward
    neighbors, giving O(m^(3/2)) worst case.
    """
    return _count_triangles(_undirected_neighbor_sets(graph))


def triangles_per_vertex(graph) -> dict[Vertex, int]:
    """Number of triangles through each vertex (same O(m^(3/2)) pass)."""
    return _triangles_through(_undirected_neighbor_sets(graph))


def local_clustering_coefficient(graph, vertex: Vertex) -> float:
    """Fraction of a vertex's neighbor pairs that are themselves linked.

    The single-vertex definition, checked pair by pair; use
    :func:`clustering_coefficients` for every vertex at once.
    """
    neighbors = _undirected_neighbor_sets(graph)
    adjacent = neighbors[vertex]
    k = len(adjacent)
    if k < 2:
        return 0.0
    links = 0
    adjacent_list = list(adjacent)
    for i, a in enumerate(adjacent_list):
        for b in adjacent_list[i + 1:]:
            if b in neighbors[a]:
                links += 1
    return 2.0 * links / (k * (k - 1))


def clustering_coefficients(graph) -> dict[Vertex, float]:
    """Local clustering coefficient of every vertex, in vertex order,
    from one triangle pass: ``2 t(v) / (k (k - 1))``, 0.0 when k < 2."""
    neighbors = _undirected_neighbor_sets(graph)
    triangles = _triangles_through(neighbors)
    coefficients = dict.fromkeys(neighbors, 0.0)
    for v, adjacent in neighbors.items():
        k = len(adjacent)
        if k > 1:
            coefficients[v] = 2.0 * triangles[v] / (k * (k - 1))
    return coefficients


def average_clustering(graph) -> float:
    """Mean local clustering coefficient (0.0 for an empty graph)."""
    coefficients = clustering_coefficients(graph)
    if not coefficients:
        return 0.0
    return sum(coefficients.values()) / len(coefficients)


def global_clustering(graph) -> float:
    """Transitivity: 3 * triangles / wedges."""
    neighbors = _undirected_neighbor_sets(graph)
    wedges = sum(
        len(adjacent) * (len(adjacent) - 1) // 2
        for adjacent in neighbors.values())
    if wedges == 0:
        return 0.0
    return 3.0 * _count_triangles(neighbors) / wedges


def degree_histogram(graph) -> dict[int, int]:
    """degree -> number of vertices with that degree."""
    return dict(Counter(graph.degree(v) for v in graph.vertices()))


def degree_statistics(graph) -> dict[str, float]:
    """Min/max/mean degree plus vertex and edge counts."""
    degrees = [graph.degree(v) for v in graph.vertices()]
    if not degrees:
        return {"vertices": 0, "edges": 0, "min_degree": 0.0,
                "max_degree": 0.0, "mean_degree": 0.0}
    return {
        "vertices": float(graph.num_vertices()),
        "edges": float(graph.num_edges()),
        "min_degree": float(min(degrees)),
        "max_degree": float(max(degrees)),
        "mean_degree": sum(degrees) / len(degrees),
    }


def degree_assortativity(graph) -> float:
    """Pearson correlation of endpoint degrees over edges.

    Returns 0.0 when undefined (no edges or zero variance).
    """
    xs: list[float] = []
    ys: list[float] = []
    for edge in graph.edges():
        du, dv = graph.degree(edge.u), graph.degree(edge.v)
        xs.extend((du, dv))
        ys.extend((dv, du))
    if not xs:
        return 0.0
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


def density(graph) -> float:
    """Edges over possible edges (simple-graph semantics)."""
    n = graph.num_vertices()
    if n < 2:
        return 0.0
    possible = n * (n - 1)
    if not graph.directed:
        possible //= 2
    return graph.num_edges() / possible


def reciprocity(graph: Graph) -> float:
    """Fraction of directed edges whose reverse also exists."""
    if not graph.directed:
        return 1.0
    total = 0
    mutual = 0
    for edge in graph.edges():
        if edge.u == edge.v:
            continue
        total += 1
        if graph.has_edge(edge.v, edge.u):
            mutual += 1
    return mutual / total if total else 0.0
