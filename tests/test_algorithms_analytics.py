"""PageRank, centrality, aggregation, and subgraph matching."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.algorithms.aggregation as aggregation
from repro.algorithms import (
    approximate_betweenness,
    average_clustering,
    betweenness_centrality,
    clustering_coefficients,
    closeness_centrality,
    count_motif,
    count_subgraph_isomorphisms,
    degree_assortativity,
    degree_histogram,
    degree_statistics,
    density,
    find_subgraph_isomorphisms,
    global_clustering,
    harmonic_centrality,
    local_clustering_coefficient,
    match_triples,
    pagerank,
    personalized_pagerank,
    reciprocity,
    top_ranked,
    triangle_count,
    triangles_per_vertex,
    Var,
)
from repro.algorithms.centrality import degree_centrality, top_central
from repro.errors import ConvergenceError
from repro.graphs import Graph, PropertyGraph, graph_from_edges
from repro.graphs.csr import CSRGraph


def to_graph(nxg):
    g = Graph(directed=nxg.is_directed())
    g.add_vertices(nxg.nodes())
    for u, v in nxg.edges():
        g.add_edge(u, v)
    return g


@pytest.fixture(scope="module")
def karate():
    return nx.karate_club_graph()


class TestPageRank:
    def test_matches_networkx(self, karate):
        g = to_graph(karate)
        ours = pagerank(g, tol=1e-12)
        theirs = nx.pagerank(karate, tol=1e-12, weight=None)
        for vertex in karate:
            assert ours[vertex] == pytest.approx(theirs[vertex], abs=1e-8)

    def test_weighted_matches_networkx(self, karate):
        g = Graph(directed=False)
        g.add_vertices(karate.nodes())
        for u, v, data in karate.edges(data=True):
            g.add_edge(u, v, weight=float(data["weight"]))
        ours = pagerank(g, tol=1e-12, weighted=True)
        theirs = nx.pagerank(karate, tol=1e-12)
        for vertex in karate:
            assert ours[vertex] == pytest.approx(theirs[vertex], abs=1e-8)

    def test_sums_to_one(self, karate):
        assert sum(pagerank(to_graph(karate)).values()) == pytest.approx(1.0)

    def test_dangling_mass(self):
        g = graph_from_edges([(1, 2)])  # 2 is a sink
        scores = pagerank(g)
        assert sum(scores.values()) == pytest.approx(1.0)
        assert scores[2] > scores[1]

    def test_personalized_biases_to_seed(self, karate):
        g = to_graph(karate)
        scores = personalized_pagerank(g, [0])
        uniform = pagerank(g)
        assert scores[0] > uniform[0]

    def test_personalized_validation(self, karate):
        g = to_graph(karate)
        with pytest.raises(ValueError):
            personalized_pagerank(g, [])
        from repro.errors import VertexNotFound

        with pytest.raises(VertexNotFound):
            personalized_pagerank(g, [999])

    def test_weighted_pagerank_prefers_heavy_edges(self):
        g = Graph(directed=True)
        g.add_edge("s", "heavy", weight=9.0)
        g.add_edge("s", "light", weight=1.0)
        scores = pagerank(g, weighted=True)
        assert scores["heavy"] > scores["light"]

    def test_bad_damping(self):
        with pytest.raises(ValueError):
            pagerank(Graph(), damping=1.5)

    def test_convergence_error(self, karate):
        with pytest.raises(ConvergenceError):
            pagerank(to_graph(karate), max_iter=1, tol=0.0)

    def test_empty_graph(self):
        assert pagerank(Graph()) == {}

    def test_top_ranked(self):
        scores = {"a": 0.5, "b": 0.3, "c": 0.2}
        assert top_ranked(scores, 2) == ["a", "b"]


class TestCentrality:
    def test_betweenness_matches_networkx(self, karate):
        g = to_graph(karate)
        ours = betweenness_centrality(g)
        theirs = nx.betweenness_centrality(karate)
        for vertex in karate:
            assert ours[vertex] == pytest.approx(theirs[vertex], abs=1e-9)

    def test_betweenness_directed(self):
        nxg = nx.gnp_random_graph(25, 0.15, seed=5, directed=True)
        ours = betweenness_centrality(to_graph(nxg))
        theirs = nx.betweenness_centrality(nxg)
        for vertex in nxg:
            assert ours[vertex] == pytest.approx(theirs[vertex], abs=1e-9)

    def test_closeness_matches_networkx(self, karate):
        g = to_graph(karate)
        ours = closeness_centrality(g)
        theirs = nx.closeness_centrality(karate)
        for vertex in karate:
            assert ours[vertex] == pytest.approx(theirs[vertex], abs=1e-9)

    def test_harmonic_positive_on_path(self):
        g = graph_from_edges([(1, 2), (2, 3)], directed=False)
        scores = harmonic_centrality(g)
        assert scores[2] > scores[1]

    def test_degree_centrality(self):
        g = graph_from_edges([(1, 2), (1, 3)], directed=False)
        scores = degree_centrality(g)
        assert scores[1] == pytest.approx(1.0)
        assert scores[2] == pytest.approx(0.5)

    def test_approximate_close_to_exact(self, karate):
        g = to_graph(karate)
        exact = betweenness_centrality(g)
        approx = approximate_betweenness(g, num_samples=20, seed=1)
        top_exact = set(top_central(exact, 3))
        top_approx = set(top_central(approx, 5))
        assert top_exact & top_approx

    def test_approximate_full_sample_is_exact(self, karate):
        g = to_graph(karate)
        assert approximate_betweenness(g, num_samples=999) == \
            betweenness_centrality(g)

    def test_sources_must_be_nonempty(self, karate):
        with pytest.raises(ValueError):
            betweenness_centrality(to_graph(karate), sources=[])


class TestAggregation:
    def test_triangles_match_networkx(self, karate):
        g = to_graph(karate)
        assert triangle_count(g) == sum(
            nx.triangles(karate).values()) // 3
        per_vertex = triangles_per_vertex(g)
        assert per_vertex == nx.triangles(karate)

    def test_clustering_matches_networkx(self, karate):
        g = to_graph(karate)
        assert average_clustering(g) == pytest.approx(
            nx.average_clustering(karate))
        assert global_clustering(g) == pytest.approx(
            nx.transitivity(karate))
        for vertex in list(karate)[:10]:
            assert local_clustering_coefficient(g, vertex) == \
                pytest.approx(nx.clustering(karate, vertex))

    def test_degree_histogram_and_stats(self):
        g = graph_from_edges([(1, 2), (2, 3)], directed=False)
        assert degree_histogram(g) == {1: 2, 2: 1}
        stats = degree_statistics(g)
        assert stats["vertices"] == 3
        assert stats["max_degree"] == 2

    def test_empty_graph_stats(self):
        stats = degree_statistics(Graph())
        assert stats["vertices"] == 0
        assert average_clustering(Graph()) == 0.0
        assert degree_assortativity(Graph()) == 0.0

    def test_assortativity_sign(self, karate):
        g = to_graph(karate)
        assert degree_assortativity(g) == pytest.approx(
            nx.degree_assortativity_coefficient(karate), abs=1e-9)

    def test_density(self):
        g = graph_from_edges([(1, 2)], directed=False)
        g.add_vertex(3)
        assert density(g) == pytest.approx(1 / 3)
        assert density(Graph()) == 0.0

    def test_reciprocity(self):
        g = graph_from_edges([(1, 2), (2, 1), (1, 3)], multigraph=True)
        assert reciprocity(g) == pytest.approx(2 / 3)
        assert reciprocity(Graph(directed=False)) == 1.0


class TestSubgraphMatching:
    def test_triangle_count_agrees(self, karate):
        g = to_graph(karate)
        assert count_motif(g, "triangle") == triangle_count(g)

    def test_motifs_on_known_graph(self):
        square_with_chord = graph_from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], directed=False)
        assert count_motif(square_with_chord, "triangle") == 2
        assert count_motif(square_with_chord, "diamond") == 1
        assert count_motif(square_with_chord, "square") == 1

    def test_directed_pattern_matches_direction(self):
        target = graph_from_edges([(1, 2), (2, 3), (3, 1)])
        cycle = graph_from_edges([(0, 1), (1, 2), (2, 0)])
        assert count_subgraph_isomorphisms(cycle, target) == 3
        path = graph_from_edges([(0, 1), (1, 2)])
        assert count_subgraph_isomorphisms(path, target) == 3

    def test_injective(self):
        pattern = graph_from_edges([(0, 1)], directed=False)
        target = graph_from_edges([(5, 6)], directed=False)
        matches = list(find_subgraph_isomorphisms(pattern, target))
        assert len(matches) == 2  # both orientations, never 5->5

    def test_vertex_compatibility_filter(self):
        pattern = graph_from_edges([(0, 1)], directed=False)
        target = graph_from_edges([("a", "b")], directed=False)
        matches = list(find_subgraph_isomorphisms(
            pattern, target,
            vertex_compatible=lambda p, t: (p == 0) == (t == "a")))
        assert matches == [{0: "a", 1: "b"}]

    def test_limit(self):
        pattern = graph_from_edges([(0, 1)], directed=False)
        target = nx.complete_graph(6)
        g = to_graph(target)
        matches = list(find_subgraph_isomorphisms(pattern, g, limit=4))
        assert len(matches) == 4

    def test_directedness_mismatch(self):
        with pytest.raises(ValueError):
            list(find_subgraph_isomorphisms(
                Graph(directed=True), Graph(directed=False)))

    def test_empty_pattern_matches_once(self):
        target = graph_from_edges([(1, 2)])
        assert count_subgraph_isomorphisms(Graph(directed=True), target) == 1


class TestTriplePatterns:
    def build(self):
        g = PropertyGraph()
        g.add_vertex("ann", label="Person")
        g.add_vertex("bob", label="Person")
        g.add_vertex("acme", label="Company")
        g.add_edge("ann", "bob", label="knows")
        g.add_edge("ann", "acme", label="works_at")
        g.add_edge("bob", "acme", label="works_at")
        return g

    def test_single_pattern(self):
        g = self.build()
        rows = list(match_triples(
            g, [(Var("x"), "works_at", "acme")]))
        assert {row["x"] for row in rows} == {"ann", "bob"}

    def test_join_on_shared_variable(self):
        g = self.build()
        rows = list(match_triples(g, [
            ("ann", "knows", Var("friend")),
            (Var("friend"), "works_at", Var("place")),
        ]))
        assert rows == [{"friend": "bob", "place": "acme"}]

    def test_predicate_variable(self):
        g = self.build()
        rows = list(match_triples(
            g, [("ann", Var("rel"), "acme")]))
        assert rows == [{"rel": "works_at"}]

    def test_wildcard_predicate(self):
        g = self.build()
        rows = list(match_triples(g, [("ann", None, Var("o"))]))
        assert {row["o"] for row in rows} == {"bob", "acme"}


# -- differential tests: the array/one-pass kernels against per-row and
# per-vertex references ----------------------------------------------------

#: Repeated values so parallel edges tie on weight; floats so they don't.
edge_weights = st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                         st.floats(0.01, 100.0))


@st.composite
def multigraphs(draw, weights=edge_weights):
    """Directed or undirected multigraphs on up to 9 vertices, inserted
    in arbitrary order: self-loops, parallel edges with their own
    weights, reciprocal directed pairs, isolated vertices and the empty
    graph all occur."""
    g = Graph(directed=draw(st.booleans()), multigraph=True)
    vertices = draw(st.lists(st.integers(0, 30), unique=True, max_size=9))
    g.add_vertices(vertices)
    if vertices:
        endpoint = st.sampled_from(vertices)
        for u, v, w in draw(st.lists(st.tuples(endpoint, endpoint, weights),
                                     max_size=40)):
            g.add_edge(u, v, weight=w)
    return g


def reference_csr(graph):
    """Per-row build: each row's (target, weight) pairs sorted."""
    order = list(graph.vertices())
    index_of = {v: i for i, v in enumerate(order)}
    rows = [[] for _ in order]
    for edge in graph.edges():
        ui, vi = index_of[edge.u], index_of[edge.v]
        rows[ui].append((vi, edge.weight))
        if not graph.directed and ui != vi:
            rows[vi].append((ui, edge.weight))
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    pairs = [pair for row in rows for pair in sorted(row)]
    return (indptr, np.array([j for j, _ in pairs], dtype=np.int64),
            np.array([w for _, w in pairs], dtype=np.float64))


def reference_pagerank(graph, damping=0.85, tol=1e-10, weighted=False,
                       personalization=None):
    """Power iteration pushing one row at a time with ``np.add.at``;
    a row's out-strength is its weights summed one by one in CSR order."""
    csr = CSRGraph.from_graph(graph)
    n = csr.num_vertices()
    if personalization is None:
        teleport = np.full(n, 1.0 / n)
    else:
        teleport = np.zeros(n)
        for vertex, mass in personalization.items():
            teleport[csr.index(vertex)] = mass
        teleport = teleport / teleport.sum()
    out_weight = np.zeros(n)
    for i in range(n):
        for k in range(csr.indptr[i], csr.indptr[i + 1]):
            out_weight[i] += csr.weights[k] if weighted else 1.0
    dangling = out_weight == 0
    rank = np.full(n, 1.0 / n)
    while True:
        new_rank = np.zeros(n)
        scale = np.divide(rank, out_weight, out=np.zeros(n), where=~dangling)
        for i in range(n):
            if dangling[i]:
                continue
            row = slice(csr.indptr[i], csr.indptr[i + 1])
            pushed = scale[i] * csr.weights[row] if weighted else scale[i]
            np.add.at(new_rank, csr.indices[row], pushed)
        new_rank = (damping * (new_rank + rank[dangling].sum() * teleport)
                    + (1 - damping) * teleport)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < tol:
            return csr.labels_to_vertices(rank)


class TestKernelsAgainstReferences:
    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_clustering_coefficients_equal_single_vertex_definition(self, g):
        coefficients = clustering_coefficients(g)
        assert list(coefficients) == list(g.vertices())
        for v in g.vertices():
            assert coefficients[v] == local_clustering_coefficient(g, v)
        values = [local_clustering_coefficient(g, v) for v in g.vertices()]
        expected = sum(values) / len(values) if values else 0.0
        assert average_clustering(g) == expected

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_triangles_per_vertex_match_networkx(self, g):
        simple = nx.Graph()
        simple.add_nodes_from(g.vertices())
        simple.add_edges_from((e.u, e.v) for e in g.edges() if e.u != e.v)
        per_vertex = triangles_per_vertex(g)
        assert per_vertex == nx.triangles(simple)
        assert triangle_count(g) == sum(per_vertex.values()) // 3

    @given(multigraphs(), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pagerank_equals_per_row_push(self, g, weighted, data):
        personalization = None
        if g.num_vertices() and data.draw(st.booleans()):
            seeds = data.draw(st.lists(st.sampled_from(list(g.vertices())),
                                       min_size=1, unique=True))
            personalization = {v: data.draw(st.floats(0.1, 5.0))
                               for v in seeds}
        ours = pagerank(g, weighted=weighted, personalization=personalization)
        if not g.num_vertices():
            assert ours == {}
            return
        theirs = reference_pagerank(g, weighted=weighted,
                                    personalization=personalization)
        assert list(ours) == list(theirs)
        assert max(abs(ours[v] - theirs[v]) for v in ours) == 0.0

    @given(multigraphs(weights=st.one_of(st.sampled_from([-1.0, 0.0, 2.0]),
                                         st.floats(-10.0, 10.0))))
    @settings(max_examples=60, deadline=None)
    def test_csr_build_equals_row_sort(self, g):
        csr = CSRGraph.from_graph(g)
        indptr, indices, weights = reference_csr(g)
        for got, want in ((csr.indptr, indptr), (csr.indices, indices),
                          (csr.weights, weights)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert csr.num_edges() == g.num_edges()

    def test_average_clustering_builds_neighbor_sets_once(self, monkeypatch):
        builds = []
        build = aggregation._undirected_neighbor_sets

        def counted(graph):
            builds.append(graph)
            return build(graph)

        monkeypatch.setattr(aggregation, "_undirected_neighbor_sets",
                            counted)
        g = to_graph(nx.karate_club_graph())
        average_clustering(g)
        assert len(builds) == 1
        builds.clear()
        global_clustering(g)
        assert len(builds) == 1
