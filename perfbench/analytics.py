"""``analytics``: survey computations called locally on an RMAT graph.

The benchmark builds the scale-10 RMAT graph in-process and calls
:func:`repro.workloads.run_computation` over and over, single-threaded,
on a graph that never changes. This is where the graph kernels and the
per-call CSR rebuild do nearly all of the work; no transport or dist
code runs.

A pass runs each computation a fixed number of times. All but the
slowest repeat, so that their medians and tails rest on enough
samples. Call ``c`` of an op uses runner seed ``c``, so every pass does
the same work and each call's summary must be identical in every pass.
A BFS call's work depends on whether the three sources its seed
samples reach much of the graph, so one BFS op is thirty calls (seeds
0-29, 90 sources) and is reported per call; timed one call at a time,
its median would jump between the modes of that mix.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext

from perfbench import common, inputs
from perfbench.spans import SpanRecorder

#: op class -> (registered computation, ops per pass, calls per op)
COMPUTATIONS = {
    "components": ("Finding Connected Components", 30, 1),
    "bfs": ("Breadth-first-search or variant", 6, 30),
    "ranking": ("Ranking & Centrality Scores", 5, 1),
    "aggregations": ("Aggregations", 1, 1),
}
SLOTS = ("components", "bfs", "ranking", "aggregations")
#: At the 7+ passes a 35-s window holds at HEAD, 210+ components
#: calls leave 10+ samples beyond p90 and 42+ BFS ops 10+ beyond p70.
TAILS = (90.0, 70.0)

#: repro.algorithms functions the runners import at call time.
KERNELS = ("pagerank", "approximate_betweenness", "triangle_count",
           "average_clustering", "connected_components")


def _targets():
    import repro.algorithms
    from repro.graphs.csr import CSRGraph

    return ([(repro.algorithms, k, f"algorithms.{k}") for k in KERNELS]
            + [(CSRGraph, "from_graph", "graphs.csr_build")])


def _call(name: str, graph, runner_seed: int, traced: bool,
          recorder: SpanRecorder):
    from repro.workloads import run_computation

    with recorder.span("workloads.run_computation") if traced \
            else nullcontext():
        return run_computation(name, graph, seed=runner_seed)


def run(seed: int, seconds: float, trace: bool) -> common.Result:
    from repro.workloads import run_computation

    graph, setup, described = inputs.timed_rmat(seed)
    notes = [described]

    # Lazy imports inside the runners happen here, not in the window.
    warm = inputs.rmat(seed, scale=5)
    for name, _ops, _calls in COMPUTATIONS.values():
        run_computation(name, warm, seed=0)

    log = common.OpLog(SLOTS)
    traced_log = common.OpLog(SLOTS)
    recorder = SpanRecorder()
    summaries: dict[tuple[str, int], dict] = {}
    check_failures: list[str] = []
    passes = traced_passes = 0
    window = common.Window(seconds)
    while window.left() > 0:
        traced = trace and passes % 2 == 0
        target_log = traced_log if traced else log
        with recorder.wrapped(_targets()) if traced else nullcontext():
            for cls in SLOTS:
                name, ops, calls = COMPUTATIONS[cls]
                for _ in range(ops):
                    # Start each op from a collected heap, so garbage
                    # the last op left is not charged to this one.
                    gc.collect()
                    with recorder.span(f"op.{cls}") if traced \
                            else nullcontext():
                        start = time.perf_counter()
                        results = [_call(name, graph, call, traced,
                                         recorder)
                                   for call in range(calls)]
                        ms = (time.perf_counter() - start) * 1000.0
                    target_log.ok(cls, ms / calls)
                    for call, result in enumerate(results):
                        first = summaries.setdefault((cls, call),
                                                     result.summary)
                        if result.summary != first:
                            check_failures.append(
                                f"{cls} seed {call}: summary "
                                f"{result.summary} differs from the "
                                f"first pass's {first}")
        passes += 1
        traced_passes += traced
    elapsed = window.elapsed()
    rss = common.peak_rss_mb()

    check_failures += _check_against_networkx(graph, summaries)
    notes.append(f"{passes} passes in {elapsed:.1f} s "
                 f"({traced_passes} traced)")
    named: dict[str, float] = {}
    if not trace:
        metrics = common.end_to_end(
            log, slots=SLOTS, tails=TAILS, window_s=elapsed,
            setup_s=setup, peak_rss_mb=rss, notes=notes)
        named = {
            "components_ms": log.p("components", 50.0),
            "bfs_ms": log.p("bfs", 50.0),
            "ranking_ms": log.p("ranking", 50.0),
            "aggregations_ms": log.p("aggregations", 50.0),
        }
    else:
        metrics = _per_layer(recorder, log, traced_log, traced_passes,
                             notes)
    return common.Result(metrics=metrics,
                         attempted=log.attempted + traced_log.attempted,
                         failed=log.failed + traced_log.failed,
                         check_failures=check_failures, named=named,
                         notes=notes, recorder=recorder)


def _per_layer(recorder: SpanRecorder, log: common.OpLog,
               traced_log: common.OpLog, traced_passes: int,
               notes: list[str]) -> dict[str, tuple[float, str]]:
    kids = recorder.children()
    runs = recorder.named("workloads.run_computation")
    metrics: dict[str, tuple[float, str]] = {
        f"algorithms.{k}_ms": (recorder.median_ms(f"algorithms.{k}"),
                               "ms")
        for k in KERNELS}
    metrics["graphs.csr_build_ms"] = (
        recorder.median_ms("graphs.csr_build"), "ms")
    metrics["graphs.csr_builds"] = (
        len(recorder.named("graphs.csr_build")) / max(1, traced_passes),
        "count")
    metrics["workloads.computation_ms"] = (
        sum(sp.ms for sp in runs) / max(1, len(runs)), "ms")
    metrics["workloads.self_ms"] = (
        sum(recorder.self_ms(sp, kids) for sp in runs)
        / max(1, len(runs)), "ms")
    metrics["trace.overhead_pct"] = (
        common.overhead_pct(log, traced_log, notes), "%")
    notes.append("unmeasured on analytics: serve.*, query.*, graphdb.*, "
                 "obs.* (no server runs), dist.*, dgps.* (no Pregel "
                 "runs); reported as 0")
    notes.append("exact per pass: graphs.csr_builds")
    return metrics


def _check_against_networkx(graph, summaries) -> list[str]:
    """Components, triangles and average clustering against networkx."""
    import networkx as nx

    failures = []
    g = nx.DiGraph() if graph.directed else nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from((e.u, e.v) for e in graph.edges())
    comps = (list(nx.weakly_connected_components(g)) if graph.directed
             else list(nx.connected_components(g)))
    want = {"components": len(comps),
            "largest": max(len(c) for c in comps)}
    got = summaries[("components", 0)]
    if got != want:
        failures.append(f"components {got} != networkx {want}")
    ug = g.to_undirected()
    triangles = sum(nx.triangles(ug).values()) // 3
    agg = summaries[("aggregations", 0)]
    if agg["triangles"] != triangles:
        failures.append(f"triangles {agg['triangles']} != networkx "
                        f"{triangles}")
    clustering = nx.average_clustering(ug)
    if abs(agg["avg_clustering"] - clustering) > 5e-5 + 1e-12:
        failures.append(f"avg_clustering {agg['avg_clustering']} != "
                        f"networkx {clustering:.6f}")
    return failures
