"""Connected components -- the survey's most popular computation (Table 9).

Provides the static algorithms (array min-label and union-find) plus an
*incremental* connectivity structure for the Section 4.3 participants who
reported running approximate/incremental connected components on changing
graphs.

For directed graphs, ``connected_components`` computes *weakly* connected
components (edge direction ignored); ``strongly_connected_components``
implements Tarjan's algorithm iteratively.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.graphs.adjacency import Vertex
from repro.graphs.csr import CSRGraph


def connected_components(graph) -> list[set[Vertex]]:
    """Weakly connected components, ordered by their first vertex in
    ``graph.vertices()`` order.

    Runs on the graph's :meth:`CSRGraph.of` snapshot: every edge hooks
    the larger of its endpoints' roots under the smaller, and pointer
    jumping flattens the forest, until no edge joins two roots. Each
    root is then its component's smallest index, i.e. its first vertex.
    """
    csr = CSRGraph.of(graph)
    n = csr.num_vertices()
    if n == 0:
        return []
    # The narrowest type that holds every index keeps the edge copies small.
    dtype = np.min_scalar_type(n)
    parent = np.arange(n, dtype=dtype)
    us = np.repeat(parent, np.diff(csr.indptr))
    vs = csr.indices.astype(dtype)
    while us.size:
        roots_u, roots_v = parent[us], parent[vs]
        # Trees only ever merge, so an edge inside one is done for good.
        split = roots_u != roots_v
        us, vs = us[split], vs[split]
        roots_u, roots_v = roots_u[split], roots_v[split]
        np.minimum.at(parent, np.maximum(roots_u, roots_v),
                      np.minimum(roots_u, roots_v))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    members = np.argsort(parent, kind="stable")
    _, starts = np.unique(parent[members], return_index=True)
    order = csr.vertex_order
    grouped = [order[i] for i in members.tolist()]
    bounds = starts.tolist() + [n]
    return [set(grouped[a:b]) for a, b in zip(bounds, bounds[1:])]


def component_labels(graph) -> dict[Vertex, int]:
    """Vertex -> component index, indexes ordered by first discovery."""
    labels: dict[Vertex, int] = {}
    for index, component in enumerate(connected_components(graph)):
        for vertex in component:
            labels[vertex] = index
    return labels


def largest_component(graph) -> set[Vertex]:
    """The largest weakly connected component (empty set for empty graph)."""
    components = connected_components(graph)
    if not components:
        return set()
    return max(components, key=len)


def num_components(graph) -> int:
    return len(connected_components(graph))


def is_connected(graph) -> bool:
    """True for non-empty graphs with a single (weak) component."""
    components = connected_components(graph)
    return len(components) == 1


def strongly_connected_components(graph) -> list[set[Vertex]]:
    """Tarjan's SCC algorithm, iterative (safe for deep graphs)."""
    if not graph.directed:
        return connected_components(graph)
    index_counter = 0
    index: dict[Vertex, int] = {}
    lowlink: dict[Vertex, int] = {}
    on_stack: set[Vertex] = set()
    stack: list[Vertex] = []
    components: list[set[Vertex]] = []

    for root in graph.vertices():
        if root in index:
            continue
        work: list[tuple[Vertex, Iterator[Vertex]]] = [
            (root, iter(graph.out_neighbors(root)))]
        index[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            vertex, neighbors = work[-1]
            advanced = False
            for neighbor in neighbors:
                if neighbor not in index:
                    index[neighbor] = lowlink[neighbor] = index_counter
                    index_counter += 1
                    stack.append(neighbor)
                    on_stack.add(neighbor)
                    work.append(
                        (neighbor, iter(graph.out_neighbors(neighbor))))
                    advanced = True
                    break
                if neighbor in on_stack:
                    lowlink[vertex] = min(lowlink[vertex], index[neighbor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[vertex])
            if lowlink[vertex] == index[vertex]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == vertex:
                        break
                components.append(component)
    return components


def condensation_edges(graph) -> set[tuple[int, int]]:
    """Edges of the SCC condensation DAG as (component_index,
    component_index) pairs."""
    sccs = strongly_connected_components(graph)
    label = {}
    for i, component in enumerate(sccs):
        for vertex in component:
            label[vertex] = i
    edges = set()
    for edge in graph.edges():
        a, b = label[edge.u], label[edge.v]
        if a != b:
            edges.add((a, b))
    return edges


class UnionFind:
    """Disjoint-set forest with union by size and path compression."""

    def __init__(self, items: Iterable[Hashable] = ()):
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: Hashable) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def find(self, item: Hashable) -> Hashable:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets of a and b; returns True if they were separate."""
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def connected(self, a: Hashable, b: Hashable) -> bool:
        if a not in self._parent or b not in self._parent:
            return False
        return self.find(a) == self.find(b)

    def component_count(self) -> int:
        return sum(1 for item, parent in self._parent.items()
                   if item == parent)

    def components(self) -> list[set[Hashable]]:
        by_root: dict[Hashable, set[Hashable]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return list(by_root.values())


def connected_components_unionfind(graph) -> list[set[Vertex]]:
    """Union-find variant; same result as :func:`connected_components`."""
    uf = UnionFind(graph.vertices())
    for edge in graph.edges():
        uf.union(edge.u, edge.v)
    return uf.components()


class IncrementalComponents:
    """Incremental (insert-only) connectivity for evolving graphs.

    The Section 4.3 streaming answers included "approximate connected
    components" maintained incrementally. Insertions are handled exactly
    in near-constant amortized time via union-find; deletions are not
    supported (that requires much heavier machinery), matching the
    insert-only incremental setting.
    """

    def __init__(self):
        self._uf = UnionFind()
        self._edges = 0

    def add_vertex(self, vertex: Vertex) -> None:
        self._uf.add(vertex)

    def add_edge(self, u: Vertex, v: Vertex) -> bool:
        """Returns True when the edge merged two components."""
        self._edges += 1
        return self._uf.union(u, v)

    def connected(self, u: Vertex, v: Vertex) -> bool:
        return self._uf.connected(u, v)

    def num_components(self) -> int:
        return self._uf.component_count()

    def components(self) -> list[set[Vertex]]:
        return self._uf.components()
