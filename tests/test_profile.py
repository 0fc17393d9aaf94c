"""Resource attribution: profiler, memory accounting, bench schema v2."""

import contextlib
import json

import pytest

from repro import obs
from repro.obs import bench
from repro.obs import profile as prof
from repro.obs.bench import (
    BenchSuite,
    compare,
    load_artifact,
    run_case,
    run_suite,
    write_artifact,
)
from repro.obs.memory import (
    AllocationTracker,
    current_rss_kb,
    memory_summary,
    peak_rss_kb,
    record_memory_gauges,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import Lane, SuperstepLanes, Timeline


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable()
    obs.reset()
    prof.disable_profiling()
    yield
    prof.disable_profiling()
    obs.disable()
    obs.reset()


def nested_work():
    """Two spans; the inner one allocates ~1 MB and burns CPU."""
    with obs.span("outer"):
        held = bytearray(256 * 1024)
        with obs.span("inner"):
            blob = bytearray(1024 * 1024)
            total = sum(range(100_000))
        return held, blob, total


class TestProfilerAttrs:
    def test_enabled_spans_carry_resource_attrs(self):
        with prof.profiled() as trace:
            nested_work()
        outer = trace.roots[0]
        inner = outer.children[0]
        for sp in (outer, inner):
            assert sp.attributes["cpu_ms"] >= 0
            assert sp.attributes["self_cpu_ms"] >= 0
            assert sp.attributes["peak_alloc_kb"] >= 0

    def test_disabled_spans_have_attrs_absent_not_zero(self):
        with obs.capture() as trace:
            nested_work()
        for root in trace.roots:
            for sp in root.walk():
                assert "cpu_ms" not in sp.attributes
                assert "self_cpu_ms" not in sp.attributes
                assert "peak_alloc_kb" not in sp.attributes

    def test_self_cpu_decomposition(self):
        with prof.profiled() as trace:
            nested_work()
        outer = trace.roots[0]
        inner = outer.children[0]
        # outer's total covers inner's; outer's self excludes it.
        assert (outer.attributes["cpu_ms"]
                >= inner.attributes["cpu_ms"])
        assert outer.attributes["self_cpu_ms"] == pytest.approx(
            outer.attributes["cpu_ms"] - inner.attributes["cpu_ms"],
            abs=0.01)
        # the inner span did the arithmetic: it owns most of the CPU
        assert (inner.attributes["self_cpu_ms"]
                > outer.attributes["self_cpu_ms"])

    def test_nested_alloc_peaks_bubble(self):
        with prof.profiled() as trace:
            nested_work()
        outer = trace.roots[0]
        inner = outer.children[0]
        # the 1 MB bytearray lives in the inner span's window ...
        assert inner.attributes["peak_alloc_kb"] >= 1000
        # ... and bubbles into the outer peak, which also saw the
        # 256 KB allocation of its own.
        assert (outer.attributes["peak_alloc_kb"]
                >= inner.attributes["peak_alloc_kb"])

    def test_profiled_restores_prior_state(self):
        assert not prof.is_profiling()
        assert not obs.is_enabled()
        with prof.profiled():
            assert prof.is_profiling()
            assert obs.is_enabled()
        assert not prof.is_profiling()
        assert not obs.is_enabled()

    def test_enable_disable_idempotent(self):
        prof.enable_profiling()
        prof.enable_profiling()
        assert prof.is_profiling()
        prof.disable_profiling()
        prof.disable_profiling()
        assert not prof.is_profiling()

    def test_no_alloc_mode_skips_peak_attr(self):
        with prof.profiled(track_alloc=False) as trace:
            nested_work()
        outer = trace.roots[0]
        assert "cpu_ms" in outer.attributes
        assert "peak_alloc_kb" not in outer.attributes


class TestJsonlRoundTrip:
    """Satellite: resource attrs survive the JSONL export/import."""

    def test_resource_attrs_round_trip(self):
        with prof.profiled() as trace:
            nested_work()
        records = obs.from_jsonl(obs.to_jsonl(trace.roots))
        outer = records[0]
        inner = outer.children[0]
        src_outer = trace.roots[0]
        assert (outer.attributes["cpu_ms"]
                == src_outer.attributes["cpu_ms"])
        assert (outer.attributes["peak_alloc_kb"]
                == src_outer.attributes["peak_alloc_kb"])
        assert (inner.attributes["self_cpu_ms"]
                == src_outer.children[0].attributes["self_cpu_ms"])

    def test_unprofiled_round_trip_has_attrs_absent(self):
        with obs.capture() as trace:
            nested_work()
        records = obs.from_jsonl(obs.to_jsonl(trace.roots))
        for record in records:
            for sp in record.walk():
                assert "cpu_ms" not in sp.attributes
                assert "peak_alloc_kb" not in sp.attributes


class TestMemoryModule:
    def test_rss_gauges_on_linux(self):
        peak = peak_rss_kb()
        assert peak is not None and peak > 0
        current = current_rss_kb()
        if current is not None:  # /proc present
            assert current > 0

    def test_memory_summary_shape(self):
        summary = memory_summary()
        assert set(summary) == {"peak_rss_kb", "current_rss_kb",
                                "traced_current_kb", "traced_peak_kb",
                                "tracing"}

    def test_allocation_tracker_measures_block(self):
        with AllocationTracker() as tracker:
            blob = bytearray(512 * 1024)
        assert tracker.peak_alloc_kb >= 500
        assert tracker.net_alloc_kb >= 500
        del blob
        with AllocationTracker() as transient:
            bytearray(512 * 1024)  # dropped immediately
        assert transient.peak_alloc_kb >= 500
        assert transient.net_alloc_kb < 500

    def test_record_memory_gauges_prefix(self):
        registry = MetricsRegistry()
        summary = record_memory_gauges(registry, prefix="test.mem")
        gauges = registry.summary()["gauges"]
        assert gauges["test.mem.peak_rss_kb"] == summary["peak_rss_kb"]
        assert "test.mem.traced_peak_kb" not in gauges  # not tracing


class TestAggregationAndRender:
    def test_profile_tree_merges_same_named_siblings(self):
        with prof.profiled() as trace:
            with obs.span("root"):
                for _ in range(4):
                    with obs.span("step"):
                        pass
        tree = prof.profile_tree(trace.roots)
        assert len(tree) == 1
        step = tree[0].children["step"]
        assert step.count == 4

    def test_hot_spans_sorting_and_top(self):
        with prof.profiled() as trace:
            nested_work()
        rows = prof.hot_spans(trace.roots, top=1, sort="self_cpu_ms")
        assert len(rows) == 1
        assert rows[0]["name"] == "inner"
        by_alloc = prof.hot_spans(trace.roots, sort="peak_alloc_kb")
        assert by_alloc[0]["peak_alloc_kb"] >= 1000

    def test_render_flame_shape(self):
        with prof.profiled() as trace:
            nested_work()
        text = prof.render_flame(trace.roots)
        assert "outer" in text and "inner" in text
        assert "#" in text  # some self-CPU bar cells
        assert prof.render_flame([]) == "(no spans)"


class TestBenchSchemaV2:
    def test_run_case_records_memory_and_throughput(self):
        suite = BenchSuite("v2")
        suite.add("alloc.case", lambda: bytearray(256 * 1024),
                  work=1000)
        record = run_case(suite.get("alloc.case"), reps=2, warmup=0)
        assert record["memory"]["peak_alloc_kb"] >= 250
        assert record["memory"]["peak_rss_kb"] > 0
        assert record["throughput"]["work_edges"] == 1000
        assert record["throughput"]["edges_per_sec"] > 0

    def test_case_without_work_has_no_throughput(self):
        suite = BenchSuite("v2")
        suite.add("plain", lambda: None)
        record = run_case(suite.get("plain"), reps=1, warmup=0)
        assert "throughput" not in record
        assert "memory" in record

    def test_callable_work_denominator(self):
        suite = BenchSuite("v2")
        suite.add("lazy", lambda: None, work=lambda: 4200)
        assert suite.get("lazy").work_units() == 4200

    def test_artifact_is_v2_and_round_trips(self, tmp_path):
        suite = BenchSuite("v2")
        suite.add("one", lambda: sum(range(100)), work=99)
        artifact = run_suite(suite, "v2", reps=1, warmup=0)
        assert artifact["schema"] == "repro.obs.bench/v2"
        path = write_artifact(artifact, tmp_path / "BENCH_v2.json")
        assert load_artifact(path) == json.loads(path.read_text())

    def test_v1_artifact_still_loads(self, tmp_path):
        v1 = {"schema": bench.BENCH_SCHEMA_V1, "label": "old",
              "suite": "old", "environment": {}, "config": {},
              "cases": [{"name": "a", "stats": {"p50": 1.0}}]}
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(v1))
        assert load_artifact(path)["label"] == "old"


def v2_case(name, p50, eps=None, peak=None):
    case = {"name": name,
            "stats": {"p50": p50, "p95": p50, "min": p50, "max": p50,
                      "mean": p50},
            "spans": {"roots": 0, "total": 0, "by_name": {}}}
    if eps is not None:
        case["throughput"] = {"work_edges": 1,
                              "edges_per_sec": eps}
    if peak is not None:
        case["memory"] = {"peak_alloc_kb": peak, "net_alloc_kb": 0,
                          "peak_rss_kb": 1}
    return case


def v2_artifact(cases, schema=None):
    return {"schema": schema or bench.BENCH_SCHEMA, "label": "syn",
            "suite": "syn",
            "environment": {"python": "3", "implementation": "test",
                            "platform": "test", "machine": "test",
                            "commit": None, "timestamp": "now"},
            "config": {"reps": 1, "warmup": 0}, "cases": cases}


class TestCompareColumns:
    def test_v2_self_compare_unchanged_everywhere(self):
        artifact = v2_artifact(
            [v2_case("a", 10.0, eps=5000.0, peak=128.0)])
        comparison = compare(artifact, artifact)
        assert comparison.exit_code == 0
        (verdict,) = comparison.verdicts
        assert verdict.verdict == "unchanged"
        assert {c.verdict for c in verdict.columns} == {"unchanged"}

    def test_v1_baseline_degrades_to_not_in_baseline(self):
        """Satellite: v2-vs-v1 never crashes, never regresses."""
        v1 = v2_artifact([{"name": "a", "stats": {"p50": 10.0}}],
                         schema=bench.BENCH_SCHEMA_V1)
        v2 = v2_artifact([v2_case("a", 10.0, eps=5000.0, peak=128.0)])
        comparison = compare(v1, v2)
        assert comparison.exit_code == 0
        (verdict,) = comparison.verdicts
        assert {c.verdict for c in verdict.columns} == \
            {"not-in-baseline"}
        text = bench.render_comparison(comparison)
        assert "not-in-baseline" in text

    def test_column_missing_in_current_never_fails(self):
        base = v2_artifact([v2_case("a", 10.0, peak=128.0)])
        cur = v2_artifact([v2_case("a", 10.0)])
        comparison = compare(base, cur)
        assert comparison.exit_code == 0
        (col,) = comparison.verdicts[0].columns
        assert col.verdict == "not-in-current"

    def test_memory_regression_fails(self):
        base = v2_artifact([v2_case("a", 10.0, peak=100.0)])
        cur = v2_artifact([v2_case("a", 10.0, peak=400.0)])
        comparison = compare(base, cur)
        assert comparison.exit_code == 1
        (verdict,) = comparison.verdicts
        assert verdict.verdict == "unchanged"  # time did not move
        assert [c.verdict for c in verdict.failing_columns] == \
            ["regressed"]
        assert "<<<" in bench.render_comparison(comparison)

    def test_memory_noise_guards_both_required(self):
        # +30% but only +30 KB: under the 64 KB min effect -> unchanged
        base = v2_artifact([v2_case("a", 10.0, peak=100.0)])
        cur = v2_artifact([v2_case("a", 10.0, peak=130.0)])
        assert compare(base, cur).exit_code == 0
        # +1000 KB but only +10%: under the 25% guard -> unchanged
        base = v2_artifact([v2_case("a", 10.0, peak=10000.0)])
        cur = v2_artifact([v2_case("a", 10.0, peak=11000.0)])
        assert compare(base, cur).exit_code == 0

    def test_throughput_regression_is_informational(self):
        # edges/sec halves, but wall time (the guarded metric) is flat
        # in this synthetic record -> verdict noted, exit code 0.
        base = v2_artifact([v2_case("a", 10.0, eps=10000.0)])
        cur = v2_artifact([v2_case("a", 10.0, eps=4000.0)])
        comparison = compare(base, cur)
        assert comparison.exit_code == 0
        (col,) = comparison.verdicts[0].columns
        assert col.column == "edges_per_sec"
        assert col.verdict == "regressed"

    def test_compare_json_payload_carries_columns(self, tmp_path,
                                                  capsys):
        base = write_artifact(
            v2_artifact([v2_case("a", 10.0, peak=100.0)]),
            tmp_path / "b.json")
        cur = write_artifact(
            v2_artifact([v2_case("a", 10.0, peak=400.0)]),
            tmp_path / "c.json")
        assert bench.main(["compare", str(base), str(cur),
                           "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        columns = payload["verdicts"][0]["columns"]
        assert columns[0]["column"] == "peak_alloc_kb"
        assert columns[0]["verdict"] == "regressed"

    def test_report_renders_resource_columns(self, tmp_path, capsys):
        artifact = v2_artifact(
            [v2_case("a", 10.0, eps=5000.0, peak=128.0),
             v2_case("b", 1.0)])
        path = write_artifact(artifact, tmp_path / "BENCH_r.json")
        assert bench.main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "edges/s" in out and "peakKB" in out
        assert "—" in out  # case b has no columns


class TestResourceLanes:
    def make_timeline(self):
        lanes = [
            Lane("w0", 10.0, 50, 100, 10, 0, 50, 9.5, 100.0),
            Lane("w1", 10.0, 50, 100, 10, 0, 50, 2.0, 400.0),
        ]
        return Timeline(k=2, partitioner="hash", supersteps=[
            SuperstepLanes(superstep=0, lanes=lanes)])

    def test_lane_defaults_keep_old_shape_working(self):
        lane = Lane("w0", 9.0, 90, 900, 90, 0, 90)
        assert lane.cpu_ms == 0.0 and lane.peak_alloc_kb == 0.0

    def test_worker_totals_accumulate_resources(self):
        totals = self.make_timeline().worker_totals()
        assert totals["w0"]["cpu_ms"] == 9.5
        assert totals["w1"]["peak_alloc_kb"] == 400.0

    def test_resource_summary_blames_workers(self):
        summary = self.make_timeline().resource_summary()
        assert summary["profiled"]
        workers = summary["workers"]
        assert workers["w0"]["blame"] == "cpu-bound"
        assert workers["w1"]["blame"] == "waiting+alloc-heavy"
        assert workers["w0"]["cpu_share"] == pytest.approx(0.95)

    def test_unprofiled_timeline_reports_not_profiled(self):
        timeline = Timeline(k=1, partitioner="hash", supersteps=[
            SuperstepLanes(superstep=0, lanes=[
                Lane("w0", 5.0, 10, 10, 0, 0, 10)])])
        assert timeline.resource_summary() == {"profiled": False,
                                               "workers": {}}

    def test_profiled_dist_run_fills_resource_lanes(self):
        from repro.dgps.algorithms import pagerank_spec
        from repro.dist import run_distributed_pregel
        from repro.generators import gnm_random_graph
        from repro.obs.timeline import build_timeline

        graph = gnm_random_graph(40, 80, directed=False, seed=3)
        with prof.profiled() as trace:
            run_distributed_pregel(
                graph, pagerank_spec(graph, supersteps=3), k=2, seed=3)
        timeline = build_timeline(trace.roots)
        assert timeline.profiled
        summary = timeline.resource_summary()
        assert set(summary["workers"]) == {"w0", "w1"}
        for row in summary["workers"].values():
            assert row["blame"]


class TestDistResourceReport:
    def test_resource_report_attributes_workers(self):
        from repro.dist.report import resource_report

        report = resource_report(vertices=40, k=2, supersteps=3)
        assert report["profiled"]
        assert set(report["workers"]) == {"w0", "w1"}

    def test_render_includes_resources_section(self):
        from repro.dist.report import _render, run_report

        report = run_report(vertices=40, ks=(1,),
                            pagerank_supersteps=3, skew_vertices=40)
        report["skew"].pop("_timelines", None)
        text = _render(report)
        assert "RESOURCES" in text
        assert "blame" in text


class TestAstCache:
    def test_sweep_reuses_cached_parses(self, tmp_path):
        from repro.analysis.scanner import (
            analyze_paths,
            ast_cache_stats,
            clear_ast_cache,
        )

        target = tmp_path / "mod.py"
        target.write_text("def fn(ctx):\n    return ctx.value\n")
        clear_ast_cache()
        analyze_paths([tmp_path])
        first = ast_cache_stats()
        assert first["misses"] == 1 and first["hits"] == 0
        analyze_paths([tmp_path])
        second = ast_cache_stats()
        assert second["hits"] == 1 and second["misses"] == 1

    def test_modified_file_invalidates_entry(self, tmp_path):
        from repro.analysis.scanner import (
            ast_cache_stats,
            clear_ast_cache,
            scan_file,
        )

        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        clear_ast_cache()
        scan_file(target)
        target.write_text("x = 2  # changed\n")
        scan_file(target)
        assert ast_cache_stats()["misses"] == 2

    def test_syntax_error_cached_and_rereported(self, tmp_path):
        from repro.analysis.scanner import clear_ast_cache, scan_file

        target = tmp_path / "bad.py"
        target.write_text("def broken(:\n")
        clear_ast_cache()
        for _ in range(2):  # second scan served from cache
            report = scan_file(target)
            assert [f.rule for f in report.findings] == ["SRC001"]


class TestOverheadGuard:
    """Satellite: profiling's *disabled* path must not slow kernels."""

    def test_disabled_profiler_within_bench_noise(self):
        import time as _time

        from repro.workloads import build_scenario, run_computation

        graph = build_scenario("social", seed=17)

        def timed_ms(traced):
            with obs.capture() if traced else contextlib.nullcontext():
                start = _time.process_time_ns()
                run_computation("Ranking & Centrality Scores", graph, 17)
                return (_time.process_time_ns() - start) / 1e6

        def median(timings):
            return sorted(timings)[len(timings) // 2]

        run_computation("Ranking & Centrality Scores", graph, 17)
        assert not prof.is_profiling()
        # Baseline: tracing off — the NULL_SPAN path never consults
        # the profiler hook. Current: tracing on, profiling disabled —
        # every real span pays the hook's None check. The two medians
        # must sit within the bench harness's own noise guards. Both
        # sides time this process's CPU, and the 5 reps of each side
        # alternate, so a competing process or a host slowing down
        # mid-test weighs on both medians alike.
        base, hook = [], []
        for _ in range(5):
            base.append(timed_ms(traced=False))
            hook.append(timed_ms(traced=True))
        base_ms, hook_ms = median(base), median(hook)
        guard = max(bench.REL_THRESHOLD * base_ms,
                    bench.MIN_EFFECT_MS)
        assert hook_ms - base_ms <= guard, (
            f"disabled-profiler span path {hook_ms:.2f}ms vs "
            f"unprofiled {base_ms:.2f}ms exceeds noise guard "
            f"{guard:.2f}ms")


@pytest.mark.profile_smoke
class TestProfileSmoke:
    """Satellite: CLI end to end, plus the report's profiled section."""

    def test_profile_cli_text(self, capsys):
        assert prof.main(["--scenario", "social", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "PROFILE" in out
        assert "HOT SPANS" in out
        assert "pregel.superstep" in out
        assert not prof.is_profiling()  # CLI restored the gate

    def test_profile_cli_json(self, capsys):
        assert prof.main(["--scenario", "social", "--json",
                          "--sort", "wall_ms"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sort"] == "wall_ms"
        rows = payload["hot_spans"]
        assert rows and all("self_cpu_ms" in row for row in rows)

    def test_obs_report_includes_profiled_run(self, capsys):
        from repro.obs import report as obs_report

        assert obs_report.main(["--scenario", "social"]) == 0
        out = capsys.readouterr().out
        assert "SPAN TREE" in out
        assert "PROFILE" in out
        assert "pregel.run" in out
