"""Cross-path equivalence: one computation, every path it runs through.

Connected components has four: the array kernel on the CSR snapshot,
the dict BFS kept here as the oracle, the HashMin Pregel program on the
single-process engine, and the same program on ``repro.dist`` at k
shards. All must return the same components; the array kernel and the
oracle must also agree on the list order (first vertex in
``graph.vertices()`` order).

PageRank runs on the engine and on ``repro.dist``, clean and with a
worker killed. Both hosts share one message plane, so they must agree
to float rounding, send validation must fail the same way on both, and
the sharded runtime's message counters are pinned exactly.
"""

import json
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import connected_components
from repro.dgps import PregelError, run_pregel
from repro.dgps.algorithms import connected_components_spec, pagerank_spec
from repro.dist import FaultPlan, run_distributed_pregel
from repro.errors import ParallelEdgeError
from repro.generators import RMATSpec, rmat_graph
from repro.graphs import Graph
from repro.graphs.views import GraphView

FIXTURES = Path(__file__).parent / "fixtures" / "cross_path_components.json"


def bfs_components(graph):
    """The dict BFS ``connected_components`` ran before the array
    kernel: components in order of their first vertex, each grown by
    BFS over ``graph.neighbors``."""
    seen = set()
    components = []
    for start in graph.vertices():
        if start in seen:
            continue
        component = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            vertex = queue.popleft()
            for neighbor in graph.neighbors(vertex):
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    queue.append(neighbor)
        components.append(component)
    return components


def grouped(graph, labels):
    """Pregel labels as components, in first-vertex order."""
    groups = {}
    for vertex in graph.vertices():
        groups.setdefault(labels[vertex], set()).add(vertex)
    return list(groups.values())


def assert_paths_agree(graph):
    expected = bfs_components(graph)
    assert connected_components(graph) == expected
    spec = connected_components_spec(graph)
    assert grouped(graph, spec.run(graph).values) == expected
    for k in (1, 3):
        result = run_distributed_pregel(graph, spec, k=k)
        assert grouped(graph, result.values) == expected


def build(directed, multigraph, vertices, edges):
    graph = Graph(directed=directed, multigraph=multigraph)
    graph.add_vertices(vertices)
    for u, v in edges:
        try:
            graph.add_edge(u, v)
        except ParallelEdgeError:
            pass
    return graph


#: Ints and strings, so vertex order is not numeric order.
vertex_ids = st.one_of(st.integers(0, 40), st.sampled_from("abcdefgh"))


@st.composite
def graphs(draw):
    """Directed or undirected, simple or multi; self-loops, parallel
    edges, isolated vertices and several components all occur."""
    vertices = draw(st.lists(vertex_ids, unique=True, max_size=14))
    edges = []
    if vertices:
        endpoint = st.sampled_from(vertices)
        edges = draw(st.lists(st.tuples(endpoint, endpoint), max_size=24))
    return build(draw(st.booleans()), draw(st.booleans()), vertices, edges)


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_components_agree_on_every_path(graph):
    assert_paths_agree(graph)


def _fixture_cases():
    return json.loads(FIXTURES.read_text())


@pytest.mark.parametrize("case", _fixture_cases(),
                         ids=lambda case: case["name"])
def test_components_fixtures(case):
    graph = build(case["directed"], case["multigraph"], case["vertices"],
                  [tuple(edge) for edge in case["edges"]])
    assert_paths_agree(graph)


def test_components_on_a_filtered_view():
    graph = build(False, False, range(8),
                  [(0, 1), (1, 2), (2, 3), (4, 5), (1, 5), (6, 6)])
    view = GraphView(graph, vertex_filter=lambda v: v != 1)
    assert connected_components(view) == [{0}, {2, 3}, {4, 5}, {6}, {7}]
    assert_paths_agree(view)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_pagerank_agrees_on_engine_and_shards(graph):
    spec = pagerank_spec(graph, supersteps=6)
    expected = spec.run(graph).values
    for k in (1, 3):
        clean = run_distributed_pregel(graph, spec, k=k)
        assert clean.values.keys() == expected.keys()
        assert sum(abs(clean.values[v] - expected[v])
                   for v in expected) <= 1e-9
        killed = run_distributed_pregel(
            graph, spec, k=k,
            fault_plan=FaultPlan().kill(f"w{min(1, k - 1)}", 2))
        assert killed.values == clean.values


#: Per-run (routed, combined, local, supersteps, checkpoint bytes) at
#: k=4 on RMAT scale 8, seed 41 — the values the per-message send path
#: produced before the shared message plane.
PINNED_COUNTERS = {
    "pagerank": (2690, 4960, 7110, 11, 63024),
    "components": (844, 2261, 2843, 5, 12400),
    "pagerank_fault": (2690, 4960, 7110, 11, 63024),
}


def test_dist_counters_are_pinned():
    graph = rmat_graph(RMATSpec(scale=8, edge_factor=8), 41)
    runs = {
        "pagerank": (pagerank_spec(graph, supersteps=10), None),
        "components": (connected_components_spec(graph), None),
        "pagerank_fault": (pagerank_spec(graph, supersteps=10),
                           FaultPlan().kill("w1", 5)),
    }
    for name, (spec, plan) in runs.items():
        result = run_distributed_pregel(graph, spec, k=4, fault_plan=plan)
        counters = (result.routed_messages(), result.combined_messages(),
                    sum(s.messages_local for s in result.stats),
                    result.supersteps, result.checkpoint_bytes)
        assert counters == PINNED_COUNTERS[name], name
        assert result.recoveries == (plan is not None)


@pytest.mark.parametrize("combiner", [None, min], ids=["plain", "combined"])
def test_send_to_unknown_vertex_fails_at_the_send_site(combiner):
    graph = build(True, False, range(6), [(0, 1), (1, 2), (4, 5)])
    caught = []

    def program(ctx):
        try:
            ctx.send("ghost", 1)
        except PregelError as error:
            caught.append((ctx.vertex, str(error)))
        ctx.vote_to_halt()

    message = ("message sent to unknown vertex 'ghost': message targets "
               "must be vertices of the graph")
    run_pregel(graph, program, combiner=combiner)
    assert caught == [(v, message) for v in range(6)]
    for k in (1, 3):
        caught.clear()
        run_distributed_pregel(graph, program, k=k, combiner=combiner)
        assert sorted(caught) == [(v, message) for v in range(6)]
