"""Core graph structure: adjacency store, property graph, CSR snapshot."""

import dataclasses
import datetime as dt
import gc
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    EdgeNotFound,
    GraphError,
    ParallelEdgeError,
    VertexNotFound,
)
from repro.graphs import (
    CSRGraph,
    Graph,
    PropertyGraph,
    PropertyType,
    graph_from_edges,
    property_type_of,
)


class TestGraphBasics:
    def test_add_and_count(self):
        g = Graph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert g.num_vertices() == 3
        assert g.num_edges() == 2
        assert "a" in g and "z" not in g
        assert len(g) == 3

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex(1)
        g.add_vertex(1)
        assert g.num_vertices() == 1

    def test_directed_adjacency(self):
        g = Graph(directed=True)
        g.add_edge("a", "b")
        assert list(g.out_neighbors("a")) == ["b"]
        assert list(g.out_neighbors("b")) == []
        assert list(g.in_neighbors("b")) == ["a"]
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")

    def test_undirected_adjacency(self):
        g = Graph(directed=False)
        g.add_edge("a", "b")
        assert g.has_edge("a", "b") and g.has_edge("b", "a")
        assert set(g.neighbors("a")) == {"b"}
        assert g.degree("a") == 1

    def test_simple_graph_rejects_parallel(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        with pytest.raises(ParallelEdgeError):
            g.add_edge(1, 2)
        g.add_edge(2, 1)  # reverse direction is a different edge

    def test_undirected_simple_rejects_reverse_parallel(self):
        g = Graph(directed=False)
        g.add_edge(1, 2)
        with pytest.raises(ParallelEdgeError):
            g.add_edge(2, 1)

    def test_multigraph_parallel_edges(self):
        g = Graph(directed=True, multigraph=True)
        e1 = g.add_edge(1, 2, weight=5.0)
        e2 = g.add_edge(1, 2, weight=3.0)
        assert g.num_edges() == 2
        assert g.edge_ids(1, 2) == frozenset({e1, e2})
        assert g.edge_weight(1, 2) == 3.0  # the cheapest parallel edge

    def test_remove_edge(self):
        g = Graph(directed=False)
        edge_id = g.add_edge(1, 2)
        removed = g.remove_edge(edge_id)
        assert removed.u == 1 and removed.v == 2
        assert g.num_edges() == 0
        assert not g.has_edge(1, 2)
        with pytest.raises(EdgeNotFound):
            g.remove_edge(edge_id)

    def test_remove_vertex_removes_incident_edges(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(3, 1)
        g.remove_vertex(2)
        assert g.num_vertices() == 2
        assert g.num_edges() == 1
        assert g.has_edge(3, 1)
        with pytest.raises(VertexNotFound):
            g.remove_vertex(2)

    def test_self_loop_degree(self):
        g = Graph(directed=False)
        g.add_edge("x", "x")
        assert g.degree("x") == 2  # undirected loops count twice
        d = Graph(directed=True)
        d.add_edge("x", "x")
        assert d.out_degree("x") == 1
        assert d.in_degree("x") == 1

    def test_degrees_directed(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(3, 2)
        assert g.in_degree(2) == 2
        assert g.out_degree(2) == 0
        assert g.degree(2) == 2

    def test_incident_edges(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(3, 1)
        incident = {(e.u, e.v) for e in g.incident_edges(1)}
        assert incident == {(1, 2), (3, 1)}

    def test_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFound):
            list(g.out_neighbors("missing"))
        with pytest.raises(VertexNotFound):
            g.degree("missing")
        with pytest.raises(EdgeNotFound):
            g.edge(123)

    def test_copy_is_independent(self):
        g = graph_from_edges([(1, 2), (2, 3)])
        clone = g.copy()
        clone.add_edge(3, 4)
        assert g.num_edges() == 2
        assert clone.num_edges() == 3

    def test_reverse(self):
        g = graph_from_edges([(1, 2)])
        r = g.reverse()
        assert r.has_edge(2, 1)
        assert not r.has_edge(1, 2)

    def test_to_undirected_merges_antiparallel(self):
        g = graph_from_edges([(1, 2), (2, 1)], multigraph=True)
        u = g.to_undirected()
        assert not u.directed
        assert u.num_edges() == 2  # multigraph keeps both
        simple = Graph(directed=True)
        simple.add_edge(1, 2)
        simple.add_edge(2, 1)
        assert simple.to_undirected().num_edges() == 1

    def test_subgraph(self):
        g = graph_from_edges([(1, 2), (2, 3), (3, 4)])
        sub = g.subgraph({1, 2, 3})
        assert sub.num_vertices() == 3
        assert sub.num_edges() == 2
        with pytest.raises(VertexNotFound):
            g.subgraph({99})

    def test_edge_other(self):
        g = Graph()
        edge_id = g.add_edge("a", "b")
        edge = g.edge(edge_id)
        assert edge.other("a") == "b"
        assert edge.other("b") == "a"
        with pytest.raises(ValueError):
            edge.other("c")

    def test_repr(self):
        g = Graph(directed=False, multigraph=True)
        assert "undirected multigraph" in repr(g)


class TestPropertyGraph:
    def test_labels_and_properties(self):
        g = PropertyGraph()
        g.add_vertex("ann", label="Person", age=42, name="Ann")
        edge_id = g.add_edge("ann", "ann2", label="KNOWS", since=2010)
        assert g.vertex_label("ann") == "Person"
        assert g.vertex_property("ann", "age") == 42
        assert g.edge_label(edge_id) == "KNOWS"
        assert g.edge_property(edge_id, "since") == 2010
        assert g.vertex_properties("ann") == {"age": 42, "name": "Ann"}

    def test_readding_merges_properties(self):
        g = PropertyGraph()
        g.add_vertex(1, label="A", x=1)
        g.add_vertex(1, y=2)
        assert g.vertex_label(1) == "A"
        assert g.vertex_properties(1) == {"x": 1, "y": 2}

    def test_unsupported_property_type_rejected(self):
        g = PropertyGraph()
        g.add_vertex(1)
        with pytest.raises(GraphError):
            g.set_vertex_property(1, "bad", [1, 2, 3])

    def test_property_type_of(self):
        assert property_type_of("x") is PropertyType.STRING
        assert property_type_of(3) is PropertyType.NUMERIC
        assert property_type_of(3.5) is PropertyType.NUMERIC
        assert property_type_of(dt.date(2017, 1, 1)) is PropertyType.DATE
        assert property_type_of(b"bin") is PropertyType.BINARY
        with pytest.raises(GraphError):
            property_type_of(object())

    def test_property_types_in_use(self):
        g = PropertyGraph()
        g.add_vertex(1, name="x", size=3)
        edge_id = g.add_edge(1, 2)
        g.set_edge_property(edge_id, "stamp", dt.datetime(2017, 5, 1))
        summary = g.property_types_in_use()
        assert summary["vertices"] == {PropertyType.STRING,
                                       PropertyType.NUMERIC}
        assert summary["edges"] == {PropertyType.DATE}

    def test_vertices_with_label(self):
        g = PropertyGraph()
        g.add_vertex(1, label="A")
        g.add_vertex(2, label="B")
        g.add_vertex(3, label="A")
        assert set(g.vertices_with_label("A")) == {1, 3}

    def test_remove_vertex_cleans_properties(self):
        g = PropertyGraph()
        g.add_vertex(1, label="A", x=1)
        edge_id = g.add_edge(1, 2, label="E")
        g.remove_vertex(1)
        assert g.vertex_properties(1) == {}
        with pytest.raises(EdgeNotFound):
            g.edge_properties(edge_id)

    def test_copy_preserves_everything(self):
        g = PropertyGraph(directed=False)
        g.add_vertex("a", label="X", n=1)
        g.add_edge("a", "b", weight=2.5, label="E", p="q")
        clone = g.copy()
        assert clone.vertex_label("a") == "X"
        assert clone.vertex_property("a", "n") == 1
        edge = next(clone.edges())
        assert edge.weight == 2.5
        assert clone.edge_label(edge.edge_id) == "E"

    def test_subgraph_preserves_labels(self):
        g = PropertyGraph()
        g.add_vertex(1, label="A")
        g.add_vertex(2, label="B")
        g.add_edge(1, 2, label="E")
        sub = g.subgraph({1, 2})
        assert sub.vertex_label(2) == "B"
        assert sub.num_edges() == 1


class TestCSR:
    def test_from_graph_directed(self):
        g = graph_from_edges([(0, 1), (0, 2), (1, 2)])
        csr = CSRGraph.from_graph(g)
        assert csr.num_vertices() == 3
        assert list(csr.neighbors_of_index(csr.index(0))) == [
            csr.index(1), csr.index(2)]
        assert csr.out_degrees().tolist() == [2, 1, 0]
        assert csr.in_degrees().tolist() == [0, 1, 2]

    def test_from_graph_undirected_symmetrized(self):
        g = graph_from_edges([(0, 1)], directed=False)
        csr = CSRGraph.from_graph(g)
        assert csr.out_degrees().tolist() == [1, 1]
        assert csr.num_edges() == 1

    def test_vertex_index_round_trip(self):
        g = graph_from_edges([("x", "y")])
        csr = CSRGraph.from_graph(g)
        assert csr.vertex(csr.index("y")) == "y"
        with pytest.raises(VertexNotFound):
            csr.index("zzz")

    def test_transpose(self):
        g = graph_from_edges([(0, 1), (1, 2)])
        t = CSRGraph.from_graph(g).transpose()
        assert t.out_degrees().tolist() == [0, 1, 1]
        assert list(t.neighbors_of_index(1)) == [0]

    def test_from_edge_array(self):
        csr = CSRGraph.from_edge_array(
            np.array([0, 1, 2]), np.array([1, 2, 0]), num_vertices=3)
        assert csr.out_degrees().tolist() == [1, 1, 1]

    def test_from_edge_array_undirected(self):
        csr = CSRGraph.from_edge_array(
            np.array([0]), np.array([1]), num_vertices=2, directed=False)
        assert csr.out_degrees().tolist() == [1, 1]

    def test_weights_preserved(self):
        g = Graph()
        g.add_edge(0, 1, weight=7.5)
        csr = CSRGraph.from_graph(g)
        assert csr.weights_of_index(csr.index(0)).tolist() == [7.5]

    def test_labels_to_vertices(self):
        g = graph_from_edges([("a", "b")])
        csr = CSRGraph.from_graph(g)
        mapped = csr.labels_to_vertices([10, 20])
        assert mapped == {"a": 10, "b": 20}

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CSRGraph(np.zeros(3), np.zeros(2), np.zeros(3), ["a", "b"],
                     directed=True)


class TestSnapshot:
    """One cached CSR snapshot per topology version, on GC-light
    tuple buckets."""

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_vertex("new"),
        lambda g: g.add_edge(2, 0),
        lambda g: g.remove_edge(next(iter(g.edges())).edge_id),
        lambda g: g.remove_vertex(1),
    ], ids=["add_vertex", "add_edge", "remove_edge", "remove_vertex"])
    def test_snapshot_reused_until_topology_changes(self, mutate):
        g = graph_from_edges([(0, 1), (1, 2)])
        first = CSRGraph.of(g)
        assert CSRGraph.of(g) is first
        assert CSRGraph.of(first) is first
        assert not first.indices.flags.writeable
        version = g.version
        g.add_vertex(0)
        assert g.version == version
        assert CSRGraph.of(g) is first
        mutate(g)
        assert g.version > version
        fresh = CSRGraph.of(g)
        assert fresh is not first
        assert np.array_equal(fresh.indptr, CSRGraph.from_graph(g).indptr)
        assert CSRGraph.of(g) is fresh

    def test_property_and_label_writes_keep_the_snapshot(self):
        g = PropertyGraph()
        g.add_vertex("a", label="Person", name="ann")
        edge_id = g.add_edge("a", "b", label="KNOWS")
        snapshot = CSRGraph.of(g)
        g.add_vertex("a", label="Admin", age=3)
        g.set_vertex_property("b", "name", "bob")
        g.set_edge_property(edge_id, "since", 2017)
        assert CSRGraph.of(g) is snapshot

    def test_copies_start_without_a_snapshot(self):
        g = graph_from_edges([(0, 1)])
        CSRGraph.of(g)
        assert g.copy()._snapshot is None
        assert pickle.loads(pickle.dumps(g))._snapshot is None
        assert g._snapshot is not None

    def test_views_are_built_fresh(self):
        from repro.graphs.views import GraphView

        view = GraphView(graph_from_edges([(0, 1)]))
        assert CSRGraph.of(view) is not CSRGraph.of(view)

    @pytest.mark.parametrize("directed", [True, False])
    def test_buckets_leave_gc_tracking(self, directed):
        g = Graph(directed=directed, multigraph=True)
        for u, v in [(0, 1), (0, 1), (1, 2), (2, 2), (3, 0)]:
            g.add_edge(u, v)
        gc.collect()
        buckets = [bucket for index in (g._out, g._in)
                   for row in index.values() for bucket in row.values()]
        assert buckets and all(type(b) is tuple for b in buckets)
        assert not any(gc.is_tracked(b) for b in buckets)

    @pytest.mark.parametrize("directed", [True, False])
    def test_parallel_edges_round_trip(self, directed):
        g = Graph(directed=directed, multigraph=True)
        g.add_vertices([0, 1])
        ids = [g.add_edge(0, 1, weight=w) for w in (3.0, 1.0, 2.0)]
        loops = [g.add_edge(1, 1), g.add_edge(1, 1)]
        assert g.edge_ids(0, 1) == frozenset(ids)
        assert g.edge_weight(0, 1) == 1.0
        assert g.out_degree(0) == 3
        g.remove_edge(ids[1])
        assert g.edge_ids(0, 1) == {ids[0], ids[2]}
        assert g.edge_weight(0, 1) == 2.0
        if not directed:
            assert g.edge_ids(1, 0) == {ids[0], ids[2]}
        for edge_id in (ids[0], ids[2], *loops):
            g.remove_edge(edge_id)
        assert not g.has_edge(0, 1) and not g.has_edge(1, 1)
        assert g.edge_ids(0, 1) == frozenset()
        assert all(not row for index in (g._out, g._in)
                   for row in index.values())
        assert g.degree(0) == g.degree(1) == 0
        assert CSRGraph.of(g).indices.size == 0

    def test_undirected_neighbors_follow_insertion_order(self):
        g = graph_from_edges([(0, 3), (2, 0), (0, 1), (0, 0)],
                             directed=False)
        assert list(g.neighbors(0)) == [3, 2, 1, 0]
        d = graph_from_edges([(0, 3), (2, 0), (0, 1), (3, 0)])
        assert list(d.neighbors(0)) == [3, 1, 2]


class TestEdgeRecords:
    """Edges are frozen, slotted records that survive pickling and
    ``copy()`` unchanged."""

    def test_edges_are_slotted_and_frozen(self):
        edge = next(graph_from_edges([(0, 1)]).edges())
        assert not hasattr(edge, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            edge.weight = 2.0
        assert pickle.loads(pickle.dumps(edge)) == edge
        assert hash(edge) == hash(dataclasses.replace(edge))

    @pytest.mark.parametrize("directed", [True, False])
    def test_graph_pickle_and_copy_round_trip(self, directed):
        g = Graph(directed=directed, multigraph=True)
        for u, v, w in [("a", "b", 2.5), ("a", "b", 0.5), ("b", "b", 1.0),
                        (3, "a", 7.0)]:
            g.add_edge(u, v, weight=w)
        g.remove_edge(1)
        clone = pickle.loads(pickle.dumps(g))
        assert list(clone.edges()) == list(g.edges())
        assert clone.edge(2) == g.edge(2)
        assert clone.version == g.version
        copied = g.copy()
        assert ([(e.u, e.v, e.weight) for e in copied.edges()]
                == [(e.u, e.v, e.weight) for e in g.edges()])
        assert copied.edge_weight("a", "b") == 2.5

    def test_property_graph_pickle_and_copy_round_trip(self):
        g = PropertyGraph()
        g.add_vertex("ann", label="Person", age=31)
        edge_id = g.add_edge("ann", "bob", weight=4.0, label="KNOWS",
                             since=2017)
        for clone in (pickle.loads(pickle.dumps(g)), g.copy()):
            assert list(clone.edges()) == list(g.edges())
            assert clone.edge(edge_id).weight == 4.0
            assert clone.edge_label(edge_id) == "KNOWS"
            assert clone.edge_properties(edge_id) == {"since": 2017}
            assert clone.vertex_properties("ann") == {"age": 31}


@given(st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60))
@settings(max_examples=60, deadline=None)
def test_edge_count_invariant(pairs):
    """num_edges equals the number of successful add_edge calls, in both
    directed and undirected multigraphs."""
    for directed in (True, False):
        g = Graph(directed=directed, multigraph=True)
        for u, v in pairs:
            g.add_edge(u, v)
        assert g.num_edges() == len(pairs)
        if not directed:
            handshake = sum(g.degree(v) for v in g.vertices())
            assert handshake == 2 * len(pairs)


@given(st.lists(
    st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=40))
@settings(max_examples=40, deadline=None)
def test_csr_matches_graph_degrees(pairs):
    g = Graph(directed=True, multigraph=True)
    g.add_vertices(range(11))
    for u, v in pairs:
        g.add_edge(u, v)
    csr = CSRGraph.from_graph(g)
    for v in g.vertices():
        assert csr.out_degrees()[csr.index(v)] == g.out_degree(v)
