"""Observability wired through query, Pregel, graphdb, mining, workloads."""

import gc
import math

import pytest

from repro import obs
from repro.dgps import PregelEngine, captured_run, pregel_pagerank, run_pregel
from repro.graphdb import GraphDatabase
from repro.graphs import graph_from_edges
from repro.obs.report import main as report_main, run_instrumented_workload
from repro.obs.spans import Span
from repro.query import AccessStats, CountingGraph, profile
from repro.synthesis import build_review_corpus
from repro.workloads import build_scenario, run_survey_workload


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def sssp_engine():
    g = graph_from_edges([(0, 1), (1, 2), (2, 3)])

    def program(ctx):
        if ctx.superstep == 0:
            value = 0.0 if ctx.vertex == 0 else math.inf
            if value == 0.0:
                ctx.send_to_neighbors(1.0)
            ctx.vote_to_halt()
            return value
        value = min(ctx.value, min(ctx.messages, default=math.inf))
        if value < ctx.value:
            ctx.send_to_neighbors(value + 1)
        ctx.vote_to_halt()
        return value

    return PregelEngine(g, program, initial_value=math.inf, combiner=min)


class TestFullSweep:
    def test_sweep_produces_complete_span_tree(self):
        """Acceptance: query, Pregel supersteps and graphdb transactions
        all present in one exportable trace."""
        roots, registry = run_instrumented_workload("social", seed=0)
        assert len(roots) == 1
        names = {s.name for s in roots[0].walk()}
        assert {"report.sweep", "workload.computation", "pregel.run",
                "pregel.superstep", "graphdb.transaction",
                "graphdb.query", "query.run",
                "query.profile"} <= names
        steps = roots[0].find("pregel.superstep")
        assert [s.attributes["superstep"] for s in steps] == list(
            range(len(steps)))
        assert all("messages_sent" in s.attributes for s in steps)
        outcomes = [s.attributes["outcome"]
                    for s in roots[0].find("graphdb.transaction")]
        assert outcomes == ["committed", "rolled_back"]
        # ... and the trace exports as JSON-lines that round-trip.
        rebuilt = obs.from_jsonl(obs.to_jsonl(roots))
        assert {s.name for s in rebuilt[0].walk()} == names
        counters = registry.summary()["counters"]
        assert counters["pregel.supersteps"] == len(steps)
        assert counters["graphdb.tx_committed"] >= 1

    def test_survey_workload_sweep_spans(self):
        graph = build_scenario("social", seed=5)
        with obs.capture() as trace:
            results = run_survey_workload(graph, seed=5)
        assert len(trace.roots) == 1
        survey = trace.roots[0]
        assert survey.name == "workload.survey"
        computations = survey.find("workload.computation")
        assert len(computations) == len(results)
        run_names = {s.attributes["name"] for s in computations}
        assert {r.name for r in results} == run_names
        hist = obs.get_registry().histogram("workload.computation_ms")
        assert hist.count == len(results)

    def test_disabled_sweep_records_nothing(self):
        """Acceptance: with instrumentation off, the same sweep touches
        only the no-op singleton -- no spans, no metrics."""
        graph = build_scenario("social", seed=5)
        before = obs.get_registry().summary()
        seen = []
        obs.subscribe(seen.append)
        try:
            run_survey_workload(graph, seed=5)
            pregel_pagerank(graph, supersteps=3)
            db = GraphDatabase()
            with db.transaction():
                db.add_vertex(1, label="V")
        finally:
            obs.unsubscribe(seen.append)
        assert seen == []
        assert obs.get_registry().summary() == before


class TestPregelObservability:
    def test_superstep_spans_without_global_tracing(self):
        """Engine listeners receive real spans even while tracing is
        globally off (forced spans), and the tracer retains nothing."""
        engine = sssp_engine()
        seen = []
        engine.capture_values()
        engine.on_superstep_span(seen.append)
        result = engine.run()
        assert len(seen) == result.supersteps
        assert all(s.closed for s in seen)
        assert seen[0].attributes["values"][0] == 0.0
        ids = {s.span_id for s in seen}
        del engine, seen
        gc.collect()
        assert not [o for o in gc.get_objects()
                    if isinstance(o, Span) and o.span_id in ids]

    def test_trace_hook_adapter_matches_span_events(self):
        hook_calls = []
        engine = sssp_engine()
        engine.set_trace_hook(
            lambda step, values: hook_calls.append((step, dict(values))))
        result = engine.run()
        assert [step for step, _ in hook_calls] == list(
            range(result.supersteps))
        assert hook_calls[-1][1] == result.values

    def test_debugger_consumes_span_events(self):
        run = captured_run(sssp_engine())
        assert run.supersteps() == run.result.supersteps
        assert run.value_at(0, 0) == 0.0
        assert run.timeline(3)[-1] == 3.0

    def test_run_pregel_trace_hook_kwarg_still_works(self):
        g = graph_from_edges([(1, 2)])
        steps = []

        def program(ctx):
            ctx.vote_to_halt()

        run_pregel(g, program,
                   trace_hook=lambda step, values: steps.append(step))
        assert steps == [0]


class TestProfilerBackedByRegistry:
    def test_access_stats_metrics_mirrored_when_enabled(self):
        g = build_scenario("social", seed=1)
        from repro.graphs import PropertyGraph

        pg = PropertyGraph()
        for v in list(g.vertices())[:10]:
            pg.add_vertex(v, label="V")
        obs.enable()
        stats = AccessStats()
        counting = CountingGraph(pg, stats)
        list(counting.vertices())
        assert stats.vertex_scans == 1
        assert stats.vertices_yielded == 10
        shared = obs.get_registry().summary()["counters"]
        assert shared["query.access.vertex_scans"] == 1
        assert shared["query.access.vertices_yielded"] == 10

    def test_access_stats_private_when_disabled(self):
        from repro.graphs import PropertyGraph

        pg = PropertyGraph()
        pg.add_vertex(1, label="V")
        stats = AccessStats()
        CountingGraph(pg, stats).neighbors(1)
        assert stats.neighbor_lists == 1
        counters = obs.get_registry().summary()["counters"]
        assert counters.get("query.access.neighbor_lists", 0) == 0

    def test_profile_emits_span_with_access_attributes(self):
        from repro.graphs import PropertyGraph

        pg = PropertyGraph()
        pg.add_vertex("a", label="Person")
        pg.add_vertex("b", label="Person")
        pg.add_edge("a", "b", label="KNOWS")
        with obs.capture() as trace:
            report = profile(pg, "MATCH (x:Person) RETURN x")
        assert len(report.result) == 2
        profile_spans = [r for r in trace.roots
                         if r.name == "query.profile"]
        assert len(profile_spans) == 1
        assert profile_spans[0].attributes["rows"] == 2
        assert profile_spans[0].attributes["access"] == (
            report.stats.as_dict())


class TestMiningSpans:
    def test_review_pipeline_span_tree(self):
        from repro.mining.pipeline import run_review

        corpus = build_review_corpus()
        with obs.capture() as trace:
            run_review(corpus)
        review = [r for r in trace.roots if r.name == "mining.review"]
        assert len(review) == 1
        tables = sorted(s.attributes["table"]
                        for s in review[0].find("mining.table"))
        assert tables == ["1", "18", "19", "20"]
        counters = obs.get_registry().summary()["counters"]
        assert counters["mining.messages_classified"] > 0


class TestReportCli:
    def test_report_main_prints_tree_and_metrics(self, capsys):
        assert report_main(["--scenario", "social"]) == 0
        out = capsys.readouterr().out
        assert "SPAN TREE" in out
        assert "pregel.superstep" in out
        assert "graphdb.transaction" in out
        assert "METRICS" in out
        assert "query.executed" in out

    def test_report_main_json_is_observability_payload(self, capsys):
        import json

        assert report_main(["--json"]) == 0
        out = capsys.readouterr().out
        bundle = json.loads(out)
        assert bundle["schema"] == obs.OBS_SCHEMA
        assert bundle["spans"][0]["name"] == "report.sweep"
        assert "counters" in bundle["metrics"]

    def test_report_main_jsonl_round_trips(self, capsys):
        assert report_main(["--jsonl"]) == 0
        out = capsys.readouterr().out
        roots = obs.from_jsonl(out)
        assert len(roots) == 1
        assert roots[0].name == "report.sweep"
