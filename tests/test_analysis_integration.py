"""Strict-mode wiring and the chaos tie-in.

The headline claim of the determinism lint is demonstrated end to end
here: a PageRank variant that iterates an unordered set and stashes
state in a closure is (a) flagged statically by DET002/DET003 and
(b) actually breaks the sharded runtime's byte-identical replay
guarantee under a worker kill — while the shipped, lint-clean
``pagerank_spec`` recovers identically.
"""

from pathlib import Path

import pytest

from repro import obs
from repro.analysis import AnalysisError, analyze_spec
from repro.dgps import (
    connected_components_spec,
    pagerank_spec,
    sssp_spec,
)
from repro.dgps.pregel import PregelSpec, run_pregel
from repro.dist import FaultPlan, run_distributed_pregel
from repro.errors import QueryError
from repro.generators import gnm_random_graph
from repro.graphs import PropertyGraph
from repro.graphs.property_graph import PropertyType
from repro.graphs.schema import GraphSchema
from repro.query import run_query

REPO_ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="module")
def graph():
    return gnm_random_graph(30, 60, directed=False, seed=11)


def _clean_program(ctx):
    total = ctx.value
    for message in sorted(ctx.messages):
        total += message
    ctx.vote_to_halt()
    return total


def make_bad_pagerank(supersteps: int = 5) -> PregelSpec:
    """A deliberately broken PageRank: unordered-set accumulation
    (DET002) plus non-idempotent closure state (DET003). The closure
    mutation is what breaks replay — a killed superstep was already
    half-executed, and recovery replays it against the mutated
    closure, double-counting the bonus."""
    state = {"bonus": 0.0}

    def program(ctx):
        incoming = set(ctx.messages)
        acc = 0.0
        for message in incoming:
            acc += message
        state["bonus"] += 1e-9
        value = 0.15 + 0.85 * acc + state["bonus"]
        if ctx.superstep < supersteps:
            out = ctx.num_out_edges()
            if out:
                ctx.send_to_neighbors(value / out)
        else:
            ctx.vote_to_halt()
        return value

    return PregelSpec(program=program, initial_value=0.0,
                      max_supersteps=supersteps + 2)


class TestStrictBuilders:
    def test_shipped_builders_pass_strict(self, graph):
        source = next(iter(graph.vertices()))
        assert pagerank_spec(graph, strict=True).program is not None
        assert connected_components_spec(
            graph, strict=True).program is not None
        assert sssp_spec(graph, source, strict=True).program is not None

    def test_bad_spec_raises_with_rule_report(self):
        spec = make_bad_pagerank()
        with pytest.raises(AnalysisError) as excinfo:
            spec.analyze(strict=True)
        rules = {f.rule for f in excinfo.value.report.errors}
        assert {"DET002", "DET003"} <= rules

    def test_unserializable_initial_value_flagged(self):
        spec = PregelSpec(program=_clean_program,
                          initial_value={1, 2, 3})
        report = analyze_spec(spec)
        assert "CKPT001" in {f.rule for f in report.findings}
        with pytest.raises(AnalysisError):
            analyze_spec(spec, strict=True)

    def test_run_pregel_strict_gate(self, graph):
        with pytest.raises(AnalysisError):
            run_pregel(graph, make_bad_pagerank().program, strict=True)
        result = run_pregel(graph, _clean_program, initial_value=1,
                            strict=True)
        assert set(result.values) == set(graph.vertices())

    def test_findings_recorded_as_span_events(self):
        try:
            with obs.capture() as trace:
                analyze_spec(make_bad_pagerank())
            checks = [s for root in trace.roots
                      for s in root.find("analysis.check")]
            assert checks
            rules = {event["rule"]
                     for s in checks
                     for event in s.attributes.get("findings", [])}
            assert {"DET002", "DET003"} <= rules
        finally:
            obs.reset()


class TestStrictCoordinator:
    def test_good_spec_runs_strict(self, graph):
        result = run_distributed_pregel(
            graph, pagerank_spec(graph, supersteps=4), k=3, seed=0,
            strict=True)
        assert set(result.values) == set(graph.vertices())

    def test_bad_spec_rejected_before_any_superstep(self, graph):
        with pytest.raises(AnalysisError):
            run_distributed_pregel(graph, make_bad_pagerank(), k=3,
                                   seed=0, strict=True)

    def test_duplicate_fault_plan_rejected_in_strict(self, graph):
        plan = (FaultPlan()
                .kill("w1", at_superstep=2)
                .kill("w1", at_superstep=2))
        with pytest.raises(AnalysisError) as excinfo:
            run_distributed_pregel(
                graph, pagerank_spec(graph, supersteps=4), k=3, seed=0,
                fault_plan=plan, strict=True)
        assert "CFG002" in {f.rule for f in excinfo.value.report.errors}


class TestStrictQueries:
    @pytest.fixture()
    def product(self):
        g = PropertyGraph()
        g.add_vertex("ann", label="Person", age=42)
        g.add_vertex("acme", label="Company", name="Acme")
        g.add_edge("ann", "acme", label="WORKS_AT")
        return g

    @pytest.fixture()
    def schema(self):
        return (GraphSchema()
                .require_vertex_property("Person", "age",
                                         PropertyType.NUMERIC)
                .require_vertex_property("Company", "name",
                                         PropertyType.STRING))

    def test_schema_rejects_unknown_label(self, product, schema):
        with pytest.raises(QueryError, match="static analysis"):
            run_query(product, "MATCH (x:Alien) RETURN x",
                      schema=schema)

    def test_schema_rejects_type_mismatch(self, product, schema):
        with pytest.raises(QueryError, match="QRY006"):
            run_query(product,
                      "MATCH (p:Person) WHERE p.age = 'old' RETURN p",
                      schema=schema)

    def test_valid_query_passes_with_schema(self, product, schema):
        result = run_query(
            product,
            "MATCH (p:Person) WHERE p.age > 21 RETURN p",
            schema=schema)
        assert result.rows == [("ann",)]


class TestChaosTie:
    """The lint's claim, demonstrated on the runtime it protects."""

    KILL = 2
    K = 3
    SUPERSTEPS = 5

    def _fault_plan(self):
        return FaultPlan().kill("w1", at_superstep=self.KILL)

    def test_bad_program_is_flagged_statically(self):
        report = analyze_spec(make_bad_pagerank())
        rules = {f.rule for f in report.errors}
        assert {"DET002", "DET003"} <= rules

    def test_bad_program_breaks_byte_identical_replay(self, graph):
        clean = run_distributed_pregel(
            graph, make_bad_pagerank(self.SUPERSTEPS), k=self.K,
            seed=0)
        faulted = run_distributed_pregel(
            graph, make_bad_pagerank(self.SUPERSTEPS), k=self.K,
            seed=0, fault_plan=self._fault_plan())
        assert faulted.recoveries == 1
        assert repr(faulted.values) != repr(clean.values)

    def test_clean_pagerank_replays_byte_identical(self, graph):
        clean = run_distributed_pregel(
            graph, pagerank_spec(graph, supersteps=self.SUPERSTEPS),
            k=self.K, seed=0)
        faulted = run_distributed_pregel(
            graph, pagerank_spec(graph, supersteps=self.SUPERSTEPS),
            k=self.K, seed=0, fault_plan=self._fault_plan())
        assert faulted.recoveries == 1
        assert repr(faulted.values) == repr(clean.values)


@pytest.mark.analysis_smoke
class TestAnalysisSmoke:
    def test_cli_clean_over_shipped_code(self, capsys):
        from repro.analysis.cli import main

        code = main(["check",
                     str(REPO_ROOT / "src" / "repro"),
                     str(REPO_ROOT / "examples")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 error(s)" in out

    def test_full_sweep_bench_case_registered(self):
        from repro.obs.bench_cases import default_suite

        suite = default_suite()
        assert "analysis.full_sweep" in suite.names()
