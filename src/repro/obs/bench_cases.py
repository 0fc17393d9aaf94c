"""Built-in cases for the :mod:`repro.obs.bench` default suite.

Mirrors the kernels the ``benchmarks/bench_workload_*.py`` and
``bench_ablation_*.py`` files time under pytest, packaged as
zero-argument callables so ``python -m repro.obs.bench run`` works from
anywhere without pytest in the loop (the pytest bench files themselves
register additional cases through the ``benchmarks/suite.py`` adapter,
passed with ``--extra``). Inputs are built lazily, once, outside the
timed region.

Imports are deliberately local to each case factory so importing
:mod:`repro.obs` never drags in the whole stack.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.bench import BenchSuite

#: Shared input sizes — small enough that a full suite run is seconds,
#: large enough that kernels dominate interpreter noise.
SOCIAL_SEED = 17
SMALLWORLD = (400, 6, 0.05)
DIST_K = 4
DIST_SUPERSTEPS = 10
SERVE_REQUESTS = 20
SERVE_QUERY = ("MATCH (c:Customer)-[:PLACED]->(o:Order) "
               "RETURN c, o")
#: The scale cases' RMAT graph: 16k vertices, ~120k edges.
RMAT_SCALE = 14
RMAT_EDGE_FACTOR = 8
RMAT_SEED = 41

_INPUTS: dict[str, Any] = {}


def _social_graph():
    if "social" not in _INPUTS:
        from repro.workloads import build_scenario

        _INPUTS["social"] = build_scenario("social", seed=SOCIAL_SEED)
    return _INPUTS["social"]


def _smallworld_graph():
    if "smallworld" not in _INPUTS:
        from repro.generators import watts_strogatz

        n, k, p = SMALLWORLD
        _INPUTS["smallworld"] = watts_strogatz(n, k, p, seed=0)
    return _INPUTS["smallworld"]


def _product_graph():
    if "product" not in _INPUTS:
        from repro.workloads import generate_product_graph

        _INPUTS["product"] = generate_product_graph(seed=SOCIAL_SEED)
    return _INPUTS["product"]


def _rmat_graph():
    if "rmat" not in _INPUTS:
        from repro.generators import RMATSpec, rmat_graph

        _INPUTS["rmat"] = rmat_graph(
            RMATSpec(scale=RMAT_SCALE, edge_factor=RMAT_EDGE_FACTOR),
            seed=RMAT_SEED)
    return _INPUTS["rmat"]


def _serve_service():
    if "serve" not in _INPUTS:
        from repro.serve.service import GraphService

        service = GraphService()
        service.create_graph(graph_id="bench", scenario="product",
                             seed=SOCIAL_SEED)
        _INPUTS["serve"] = service
    return _INPUTS["serve"]


def _serve_http_connection():
    """One keep-alive connection to a loopback server hosting the same
    graph as :func:`_serve_service`, on a service of its own."""
    if "serve_http" not in _INPUTS:
        from http.client import HTTPConnection

        from repro.serve.server import start_server
        from repro.serve.service import GraphService

        service = GraphService()
        service.create_graph(graph_id="bench", scenario="product",
                             seed=SOCIAL_SEED)
        handle = start_server(service)
        conn = HTTPConnection(handle.host, handle.port, timeout=30)
        _INPUTS["serve_http"] = (handle, conn)
    return _INPUTS["serve_http"][1]


def clear_inputs() -> None:
    """Drop cached case inputs (tests use this to isolate state)."""
    served = _INPUTS.pop("serve_http", None)
    if served is not None:
        handle, conn = served
        conn.close()
        handle.shutdown(drain_s=0.0)
    _INPUTS.clear()


def _workload_case(computation: str) -> Callable[[], Any]:
    def run():
        from repro.workloads import run_computation

        return run_computation(computation, _social_graph(),
                               seed=SOCIAL_SEED)
    return run


# -- work denominators (schema-v2 throughput; GraphChallenge publishes
# edges/sec as the comparable unit, so every graph kernel declares the
# edges one repetition processes) -------------------------------------

def _social_edges() -> int:
    return _social_graph().num_edges()


def _social_edge_supersteps() -> int:
    # Pregel-style kernels touch every edge once per superstep.
    return _social_graph().num_edges() * DIST_SUPERSTEPS


def _smallworld_edges() -> int:
    return _smallworld_graph().num_edges()


def _rmat_edges() -> int:
    return _rmat_graph().num_edges()


def register_default_cases(suite: BenchSuite) -> BenchSuite:
    """Register the standing case set: workload kernels, ablation
    kernels, and one k=4 distributed case."""
    n, k, p = SMALLWORLD

    # -- workload kernels (Table 9 computations on the scenario graph) --
    for name, computation in (
        ("workload.components", "Finding Connected Components"),
        ("workload.pagerank", "Ranking & Centrality Scores"),
        ("workload.bfs", "Breadth-first-search or variant"),
        ("workload.triangles", "Aggregations"),
        ("workload.partitioning", "Graph Partitioning"),
    ):
        suite.add(name, _workload_case(computation),
                  tags=("workload",), work=_social_edges,
                  computation=computation,
                  scenario="social", seed=SOCIAL_SEED)

    # -- scale cases on one RMAT graph: what holding it costs the
    # collector, and a kernel on its warm snapshot -------------------
    def resident_gc_case():
        import gc

        _rmat_graph()
        return gc.collect()

    def components_rmat_case():
        from repro.algorithms import connected_components

        return len(connected_components(_rmat_graph()))

    rmat_params = dict(scale=RMAT_SCALE, edge_factor=RMAT_EDGE_FACTOR,
                       seed=RMAT_SEED)
    suite.add("graphs.resident_gc", resident_gc_case,
              tags=("graphs",), work=_rmat_edges, **rmat_params)
    suite.add("workload.components_rmat14",
              components_rmat_case, tags=("workload",), work=_rmat_edges,
              **rmat_params)

    def pregel_pagerank_case():
        from repro.dgps import pregel_pagerank

        return pregel_pagerank(_social_graph(),
                               supersteps=DIST_SUPERSTEPS)

    suite.add("dgps.pregel_pagerank", pregel_pagerank_case,
              tags=("workload", "dgps"),
              work=_social_edge_supersteps,
              supersteps=DIST_SUPERSTEPS)

    def query_case():
        from repro.query import run_query

        return run_query(_product_graph(),
                         "MATCH (c:Customer)-[:PLACED]->(o:Order) "
                         "RETURN c, o").rows

    suite.add("query.match_placed", query_case, tags=("query",))

    # -- ablation kernels (partitioner quality bench, head to head) ----
    def partition_bfs_case():
        from repro.algorithms.partitioning import partition_graph

        return partition_graph(_smallworld_graph(), DIST_K, seed=0)

    def partition_hash_case():
        from repro.dist import hash_partition

        return hash_partition(_smallworld_graph(), DIST_K, seed=0)

    suite.add("ablation.partition_bfs", partition_bfs_case,
              tags=("ablation",), work=_smallworld_edges,
              n=n, k=DIST_K, strategy="bfs+refine")
    suite.add("ablation.partition_hash", partition_hash_case,
              tags=("ablation",), work=_smallworld_edges,
              n=n, k=DIST_K, strategy="hash")

    # -- the sharded runtime, k=4 --------------------------------------
    def dist_pagerank_case():
        from repro.dgps.algorithms import pagerank_spec
        from repro.dist import run_distributed_pregel

        graph = _social_graph()
        return run_distributed_pregel(
            graph, pagerank_spec(graph, supersteps=DIST_SUPERSTEPS),
            k=DIST_K, seed=0).values

    suite.add("dist.pagerank_k4", dist_pagerank_case,
              tags=("dist",), work=_social_edge_supersteps,
              k=DIST_K, supersteps=DIST_SUPERSTEPS,
              partitioner="bfs")

    def dist_pagerank_with_fault_case():
        from repro.dgps.algorithms import pagerank_spec
        from repro.dist import FaultPlan, run_distributed_pregel

        graph = _social_graph()
        return run_distributed_pregel(
            graph, pagerank_spec(graph, supersteps=DIST_SUPERSTEPS),
            k=DIST_K, seed=0,
            fault_plan=FaultPlan().kill(
                "w1", at_superstep=DIST_SUPERSTEPS // 2)).values

    # Same kernel as dist.pagerank_k4 plus one mid-run worker kill —
    # the delta between the two medians is the recovery overhead
    # (checkpoint restore + replay), tracked per PR like any other
    # case.
    suite.add("dist.pagerank_with_fault", dist_pagerank_with_fault_case,
              tags=("dist", "resilience"),
              work=_social_edge_supersteps, k=DIST_K,
              supersteps=DIST_SUPERSTEPS, partitioner="bfs",
              fault=f"w1@{DIST_SUPERSTEPS // 2}",
              baseline_case="dist.pagerank_k4")

    def analysis_full_sweep_case():
        from pathlib import Path

        import repro
        from repro.analysis import analyze_paths

        package_root = Path(repro.__file__).parent
        report = analyze_paths([package_root])
        return {"targets": len(report.targets),
                "findings": len(report.findings)}

    # Tracks the analyzer's steady-state sweep over the full source
    # tree. After the warmup rep this measures the *incremental* path
    # (unchanged files hit the whole-file result cache), which is
    # what CI re-runs pay; cold rule cost is tracked separately by
    # analysis.concurrency_sweep below.
    suite.add("analysis.full_sweep", analysis_full_sweep_case,
              tags=("analysis",), paths="src/repro")

    def analysis_concurrency_sweep_case():
        from pathlib import Path

        import repro
        from repro.analysis import analyze_paths
        from repro.analysis.registry import match_selection
        from repro.analysis.scanner import clear_ast_cache

        # Cold on purpose: clearing the caches makes every rep pay
        # the full parse + rule cost, so a slow RACE/LEAK/DLC rule
        # regresses visibly instead of hiding behind the result
        # cache.
        clear_ast_cache()
        package_root = Path(repro.__file__).parent
        report = analyze_paths([package_root])
        select = ("RACE", "LEAK", "DLC", "SUP")
        findings = [f for f in report.findings
                    if match_selection(f.rule, select, ())]
        return {"targets": len(report.targets),
                "findings": len(findings)}

    # Cold-cache cost of the concurrency/resource-safety families
    # (the most traversal-heavy rules) over the full source tree.
    suite.add("analysis.concurrency_sweep",
              analysis_concurrency_sweep_case,
              tags=("analysis",), paths="src/repro")

    # -- service layer (GraphService driven directly, no socket: the
    # cache-hit path vs. the executor path, requests/sec) --------------
    def serve_cached_case():
        service = _serve_service()
        for _ in range(SERVE_REQUESTS):
            last = service.query("bench", SERVE_QUERY)
        return last["cache"]

    def serve_cold_case():
        service = _serve_service()
        for _ in range(SERVE_REQUESTS):
            service.cache.clear()  # force the executor path each time
            last = service.query("bench", SERVE_QUERY)
        return last["cache"]

    def serve_traced_case():
        # The cached-query loop under an explicit trace scope, so the
        # compare gate (baseline: serve.query_cached) proves the
        # request-tracing layer — trace-id stamping, slowlog
        # recording, SLO accounting, retention ingest — stays within
        # the noise guards on the hottest serve path.
        from repro.obs.trace_context import trace_scope

        service = _serve_service()
        for _ in range(SERVE_REQUESTS):
            with trace_scope():
                last = service.query("bench", SERVE_QUERY)
        return last["cache"]

    def serve_deadline_case():
        # The cached-query loop under an armed (generous) deadline,
        # so the compare gate (baseline: serve.query_cached) pins the
        # cost of cooperative deadline checks — contextvar read +
        # monotonic clock per row/boundary — on the hottest serve
        # path.
        from repro.obs.deadline import deadline_scope

        service = _serve_service()
        with deadline_scope(60_000.0):
            for _ in range(SERVE_REQUESTS):
                last = service.query("bench", SERVE_QUERY)
        return last["cache"]

    def serve_http_cached_case():
        # The serve.query_cached loop through the HTTP transport: the
        # compare gate against that baseline tracks the service-to-HTTP
        # gap (parsing, routing, JSON encoding, loopback round trips).
        import json

        conn = _serve_http_connection()
        body = json.dumps({"query": SERVE_QUERY}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        for _ in range(SERVE_REQUESTS):
            conn.request("POST", "/graphs/bench/query", body=body,
                         headers=headers)
            response = conn.getresponse()
            last = json.loads(response.read())
            if response.status != 200:
                raise RuntimeError(
                    f"HTTP {response.status} from the bench server: "
                    f"{last}")
        return last["cache"]

    suite.add("serve.query_cached", serve_cached_case,
              tags=("serve",), work=SERVE_REQUESTS,
              query=SERVE_QUERY, requests=SERVE_REQUESTS)
    suite.add("serve.query_cold", serve_cold_case,
              tags=("serve",), work=SERVE_REQUESTS,
              query=SERVE_QUERY, requests=SERVE_REQUESTS,
              baseline_case="serve.query_cached")
    suite.add("serve.request_traced", serve_traced_case,
              tags=("serve",), work=SERVE_REQUESTS,
              query=SERVE_QUERY, requests=SERVE_REQUESTS,
              baseline_case="serve.query_cached")
    suite.add("serve.query_deadline", serve_deadline_case,
              tags=("serve",), work=SERVE_REQUESTS,
              query=SERVE_QUERY, requests=SERVE_REQUESTS,
              deadline_ms=60_000.0,
              baseline_case="serve.query_cached")
    suite.add("serve.http_cached", serve_http_cached_case,
              tags=("serve",), work=SERVE_REQUESTS,
              query=SERVE_QUERY, requests=SERVE_REQUESTS,
              transport="http",
              baseline_case="serve.query_cached")

    return suite


def default_suite() -> BenchSuite:
    """A fresh suite holding the standing case set."""
    return register_default_cases(BenchSuite("repro-default"))
