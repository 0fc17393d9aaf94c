"""Request tracing, retention, slowlog, SLOs — unit through HTTP."""

import gc
import json
import threading
import time

import pytest

from repro import obs
from repro.obs import bench
from repro.obs.retention import RetentionPolicy, TraceStore
from repro.obs.spans import Span
from repro.obs.slo import (
    SLOMonitor,
    SLOSpec,
    evaluate_samples,
    parse_specs,
)
from repro.obs.slowlog import SlowLog, fingerprint
from repro.obs.trace_context import (
    accept_trace_id,
    current_trace_id,
    new_trace_id,
    trace_scope,
    valid_trace_id,
)
from repro.serve import GraphService, TraceNotFound, start_server
from repro.serve.traffic import ServeClient
from repro.workloads import run_computation

PLACED = "MATCH (c:Customer)-[:PLACED]->(o:Order) RETURN c, o"


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def product_service(**kwargs) -> GraphService:
    service = GraphService(**kwargs)
    service.create_graph(graph_id="g1", scenario="product", seed=7)
    return service


def make_root(name="serve.request", trace_id=None, duration_s=0.0,
              **attrs):
    """A closed root span, optionally trace-tagged, for store tests."""
    if trace_id is not None:
        attrs["trace_id"] = trace_id
    with obs.forced_span(name, **attrs) as sp:
        if duration_s:
            time.sleep(duration_s)
    return sp


class TestTraceContext:
    def test_ids_are_fresh_and_valid(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(valid_trace_id(t) for t in ids)

    def test_no_ambient_id_outside_scope(self):
        assert current_trace_id() is None

    def test_scope_binds_and_restores(self):
        with trace_scope() as tid:
            assert current_trace_id() == tid
        assert current_trace_id() is None

    def test_nested_scope_shares_the_trace(self):
        with trace_scope() as outer:
            with trace_scope() as inner:
                assert inner == outer

    def test_explicit_id_rebinds_even_nested(self):
        with trace_scope("outer_id"):
            with trace_scope("inner_id") as inner:
                assert inner == "inner_id"
                assert current_trace_id() == "inner_id"
            assert current_trace_id() == "outer_id"

    def test_accept_mints_when_absent(self):
        assert valid_trace_id(accept_trace_id(None))
        assert valid_trace_id(accept_trace_id(""))
        assert accept_trace_id("given_id") == "given_id"

    @pytest.mark.parametrize("bad", [
        "has space", "semi;colon", "x" * 65, "new\nline", "é"])
    def test_accept_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="bad trace id"):
            accept_trace_id(bad)

    def test_spans_inside_scope_are_stamped(self):
        with obs.capture() as trace:
            with trace_scope() as tid:
                with obs.span("outer"):
                    with obs.span("inner"):
                        pass
        [root] = trace.roots
        assert all(s.attributes["trace_id"] == tid
                   for s in root.walk())

    def test_spans_outside_scope_are_not_stamped(self):
        with obs.capture() as trace:
            with obs.span("plain"):
                pass
        [root] = trace.roots
        assert "trace_id" not in root.attributes

    def test_explicit_span_attribute_wins(self):
        with obs.capture() as trace:
            with trace_scope("ambient"):
                with obs.span("s", trace_id="explicit"):
                    pass
        [root] = trace.roots
        assert root.attributes["trace_id"] == "explicit"


class TestDistPropagation:
    def test_trace_id_reaches_worker_supersteps(self):
        from repro.generators import watts_strogatz

        graph = watts_strogatz(60, 4, 0.05, seed=3)
        with obs.capture() as trace:
            with trace_scope("dist_trace_1") as tid:
                run_computation("Finding Connected Components", graph,
                                seed=3, distributed=True, shards=2)
        roots = trace.roots
        assert roots
        workers = [s for root in roots for s in
                   root.find("dist.worker.superstep")]
        assert workers, "expected dist.worker.superstep spans"
        assert all(w.attributes.get("trace_id") == tid
                   for w in workers)
        supersteps = [s for root in roots
                      for s in root.find("dist.superstep")]
        assert supersteps and all(
            s.attributes.get("trace_id") == tid for s in supersteps)


class TestTraceStore:
    def test_rejects_unclosed_and_non_root(self):
        store = TraceStore()
        open_span = obs.forced_span("open")
        open_span.__enter__()
        child = obs.forced_span("child")
        with child:
            pass
        child.parent = open_span
        assert store.ingest(open_span) is False
        assert store.ingest(child) is False
        assert store.ingest(obs.NULL_SPAN) is False
        open_span.__exit__(None, None, None)
        assert store.stats()["ingested"] == 0

    def test_index_lookup_by_trace_id(self):
        store = TraceStore()
        root = make_root(trace_id="abc123")
        assert store.ingest(root) is True
        assert store.get("abc123") is root
        assert store.get("missing") is None

    def test_ring_is_bounded_and_evicts_oldest(self):
        policy = RetentionPolicy(capacity=4, error_capacity=1,
                                 slow_capacity=1)
        store = TraceStore(policy)
        for i in range(20):
            store.ingest(make_root(trace_id=f"t{i}"))
        stats = store.stats()
        assert stats["ring"] == 4
        assert stats["slow"] == 1
        assert store.retained <= policy.capacity \
            + policy.error_capacity + policy.slow_capacity

    def test_error_traces_survive_ring_churn(self):
        policy = RetentionPolicy(capacity=2, error_capacity=8,
                                 slow_capacity=1)
        store = TraceStore(policy)
        store.ingest(make_root(trace_id="boom", error=True))
        for i in range(50):
            store.ingest(make_root(trace_id=f"ok{i}"))
        assert store.get("boom") is not None
        assert store.stats()["errors_kept"] == 1

    def test_error_attribute_marks_error_class(self):
        store = TraceStore()
        root = make_root(trace_id="err1", error="QueryError")
        store.ingest(root)  # error= not passed; attr alone suffices
        assert store.stats()["errors_kept"] == 1

    def test_slow_tail_survives_ring_churn(self):
        policy = RetentionPolicy(capacity=2, error_capacity=1,
                                 slow_capacity=2)
        store = TraceStore(policy)
        slow = make_root(trace_id="slow", duration_s=0.02)
        store.ingest(slow)
        for i in range(40):
            store.ingest(make_root(trace_id=f"fast{i}"))
        assert store.get("slow") is not None

    def test_head_sampling_drops_ordinary_traces(self):
        policy = RetentionPolicy(capacity=100, error_capacity=1,
                                 slow_capacity=1, sample_every=4)
        store = TraceStore(policy)
        for i in range(40):
            store.ingest(make_root(trace_id=f"t{i}"))
        stats = store.stats()
        assert stats["sampled_out"] > 0
        assert stats["ingested"] == stats["kept"] \
            + stats["sampled_out"]

    def test_counters_reconcile_under_concurrent_ingest(self):
        policy = RetentionPolicy(capacity=16, error_capacity=4,
                                 slow_capacity=4, sample_every=3)
        store = TraceStore(policy)
        n_threads, per_thread = 8, 50
        roots = [[make_root(trace_id=f"w{w}r{i}",
                            error=(i % 17 == 0))
                  for i in range(per_thread)]
                 for w in range(n_threads)]

        def ingest_all(batch):
            for root in batch:
                store.ingest(root)

        threads = [threading.Thread(target=ingest_all, args=(b,))
                   for b in roots]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = store.stats()
        assert stats["ingested"] == n_threads * per_thread
        assert stats["ingested"] == stats["kept"] \
            + stats["sampled_out"]
        assert stats["retained"] == stats["kept"] - stats["evicted"]
        assert stats["ring"] <= policy.capacity
        assert stats["errors"] <= policy.error_capacity
        assert stats["slow"] <= policy.slow_capacity

    def test_metrics_mirror_when_enabled(self):
        obs.enable()
        store = TraceStore(RetentionPolicy(capacity=2,
                                           error_capacity=1,
                                           slow_capacity=1))
        for i in range(5):
            store.ingest(make_root(trace_id=f"m{i}"))
        counters = obs.get_registry().summary()["counters"]
        assert counters["obs.traces.ingested"] == 5
        assert counters["obs.traces.kept"] == 5

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            RetentionPolicy(capacity=0)
        with pytest.raises(ValueError, match="sample_every"):
            RetentionPolicy(sample_every=0)


class TestSlowLog:
    def test_fingerprint_collapses_literals(self):
        a = fingerprint(
            "MATCH (c:Customer) WHERE c.age > 30 RETURN c")
        b = fingerprint(
            "MATCH (c:Customer)  WHERE c.age > 99 RETURN c")
        assert a == b
        assert "30" not in a and "?" in a

    def test_fingerprint_collapses_strings_before_numbers(self):
        fp = fingerprint("MATCH (n) WHERE n.name = 'bob42' RETURN n")
        assert "bob42" not in fp and "42" not in fp

    def test_fingerprint_keeps_structure(self):
        assert fingerprint("MATCH (a:X) RETURN a") \
            != fingerprint("MATCH (a:Y) RETURN a")

    def test_aggregation_and_ordering(self):
        log = SlowLog(top_k=2)
        for latency in (5.0, 1.0, 9.0):
            log.record("Q1 LIMIT 1", latency, trace_id=f"t{latency}")
        log.record("Q2 LIMIT 1", 2.0, cached=True)
        [q1, q2] = log.report()
        assert q1["count"] == 3 and q1["total_ms"] == 15.0
        assert q1["max_ms"] == 9.0 and q1["min_ms"] == 1.0
        # top-k keeps the slowest samples with their trace links
        assert [s["latency_ms"] for s in q1["slowest"]] == [9.0, 5.0]
        assert q1["slowest"][0]["trace_id"] == "t9.0"
        assert q2["cached"] == 1

    def test_errors_recorded(self):
        log = SlowLog()
        log.record("Q", 1.0, error="QueryError")
        [row] = log.report()
        assert row["errors"] == 1
        assert row["last_error"] == "QueryError"

    def test_lru_bounds_fingerprints(self):
        log = SlowLog(max_fingerprints=3)
        for i in range(6):
            log.record(f"QUERY SHAPE {chr(65 + i)}", 1.0)
        stats = log.stats()
        assert stats["fingerprints"] == 3
        assert stats["evicted_fingerprints"] == 3
        assert stats["recorded"] == 6


class TestSLOSpec:
    def test_parse_latency(self):
        spec = SLOSpec.parse("latency:query<250ms@0.99")
        assert spec.kind == "latency" and spec.op == "query"
        assert spec.threshold_ms == 250.0 and spec.target == 0.99

    def test_parse_errors_kind(self):
        spec = SLOSpec.parse("errors:*@0.999")
        assert spec.kind == "errors" and spec.op == "*"

    def test_render_roundtrip(self):
        for literal in ("latency:query<250ms@0.99", "errors:*@0.999",
                        "latency:algorithm<1500ms@0.9"):
            assert SLOSpec.parse(literal).render() == literal

    @pytest.mark.parametrize("bad", [
        "latency:query<250ms",        # no target
        "latency:frobnicate<1ms@0.9",  # unknown op
        "latency:query<0ms@0.9",      # non-positive threshold
        "latency:query<10ms@1.5",     # target out of range
        "latency:query<10ms@0",       # target out of range
        "errors:nope@0.9",            # unknown op
        "availability:*@0.9",         # unknown kind
        "gibberish",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            SLOSpec.parse(bad)

    def test_latency_ignores_failed_requests(self):
        spec = SLOSpec.parse("latency:query<10ms@0.9")
        assert spec.is_bad(500.0, error=True) is None
        assert spec.is_bad(500.0, error=False) is True
        assert spec.is_bad(5.0, error=False) is False

    def test_parse_specs_mixed(self):
        specs = parse_specs(["errors:*@0.99",
                             SLOSpec.parse("latency:query<5ms@0.5")])
        assert [s.kind for s in specs] == ["errors", "latency"]


class TestSLOMonitor:
    def test_burning_requires_every_window(self):
        clock = {"t": 1000.0}
        monitor = SLOMonitor(["errors:*@0.9"], windows=(10.0, 60.0),
                             clock=lambda: clock["t"])
        # Old good traffic fills the long window...
        for _ in range(50):
            monitor.record("query", 1.0)
        clock["t"] += 55.0
        # ...then a short error burst: the 10s window burns, but the
        # 60s window still holds enough budget.
        for _ in range(5):
            monitor.record("query", 1.0, error=True)
        payload = monitor.evaluate()
        [row] = payload["slos"]
        short, long_w = row["windows"]
        assert short["met"] is False
        assert long_w["met"] is True
        assert row["burning"] is False
        # Move on: the old good traffic ages out of both windows.
        clock["t"] += 30.0
        for _ in range(5):
            monitor.record("query", 1.0, error=True)
        [row] = monitor.evaluate()["slos"]
        assert row["burning"] is True

    def test_burn_rate_math(self):
        monitor = SLOMonitor(["errors:*@0.9"], windows=(60.0,),
                             clock=lambda: 100.0)
        for i in range(10):
            monitor.record("query", 1.0, error=(i < 2))
        [row] = monitor.evaluate(now=100.0)["slos"]
        [window] = row["windows"]
        # bad rate 0.2 against a 0.1 budget -> burn 2.0
        assert window["burn_rate"] == pytest.approx(2.0)
        assert window["met"] is False

    def test_zero_budget_target(self):
        monitor = SLOMonitor(["errors:*@1.0"], windows=(60.0,),
                             clock=lambda: 100.0)
        monitor.record("query", 1.0, error=True)
        [row] = monitor.evaluate(now=100.0)["slos"]
        [window] = row["windows"]
        assert window["burn_rate"] is None
        assert window["met"] is False

    def test_events_bounded(self):
        monitor = SLOMonitor(["errors:*@0.9"], max_events=16,
                             clock=lambda: 100.0)
        for _ in range(100):
            monitor.record("query", 1.0)
        assert monitor.stats()["window_events"] == 16
        assert monitor.stats()["recorded"] == 100

    def test_op_matching(self):
        monitor = SLOMonitor(["latency:mutate<10ms@0.5"],
                             clock=lambda: 100.0)
        monitor.record("query", 500.0)
        monitor.record("mutate", 1.0)
        [row] = monitor.evaluate(now=100.0)["slos"]
        assert row["events"] == 1

    def test_evaluate_samples_one_shot(self):
        rows = evaluate_samples(
            ["latency:query<10ms@0.5", "errors:*@0.5"],
            [("query", 5.0, False), ("query", 50.0, False),
             ("mutate", 1.0, True)])
        by_spec = {row["spec"]: row for row in rows}
        lat = by_spec["latency:query<10ms@0.5"]
        assert lat["events"] == 2 and lat["bad"] == 1
        assert lat["met"] is True
        err = by_spec["errors:*@0.5"]
        assert err["events"] == 3 and err["bad"] == 1

    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError, match="windows"):
            SLOMonitor([], windows=())


class TestCFG006:
    def test_rule_registered(self):
        from repro.analysis import all_rules

        assert any(r.rule_id == "CFG006" for r in all_rules())

    def test_check_slo_spec(self):
        from repro.analysis import check_slo_spec

        assert check_slo_spec("latency:query<250ms@0.99").findings \
            == []
        [bad] = check_slo_spec("latency:query<0ms@0.99").findings
        assert bad.rule == "CFG006"
        assert "must be > 0" in bad.message

    def test_scanner_lints_literals(self):
        from repro.analysis import scan_source

        source = (
            "from repro.obs.slo import SLOSpec\n"
            'good = SLOSpec.parse("errors:*@0.999")\n'
            'bad = SLOSpec.parse("errors:frobnicate@0.9")\n')
        report = scan_source(source, "demo.py")
        [f] = [f for f in report.findings if f.rule == "CFG006"]
        assert f.line == 3
        assert "frobnicate" in f.message


class TestServiceTelemetry:
    def test_request_traces_are_retained(self):
        obs.enable()
        service = product_service()
        service.query("g1", PLACED)
        listing = service.debug_traces()
        assert listing["stats"]["ingested"] >= 2  # create + query
        ops = [row["op"] for row in listing["traces"]]
        assert "query" in ops and "create" in ops

    def test_failed_request_marks_error_trace(self):
        obs.enable()
        service = product_service()
        with pytest.raises(Exception):
            service.query("g1", "NOT A QUERY (")
        assert service.traces.stats()["errors_kept"] == 1
        [row] = [r for r in service.debug_traces()["traces"]
                 if r["error"]]
        assert row["error"] == "QueryError"

    def test_debug_trace_roundtrip_and_404(self):
        obs.enable()
        service = product_service()
        service.query("g1", PLACED)
        [row] = [r for r in service.debug_traces()["traces"]
                 if r["op"] == "query"]
        detail = service.debug_trace(row["trace_id"])
        names = [s["name"] for s in detail["spans"]]
        assert "serve.request" in names
        assert all(s["attributes"]["trace_id"] == row["trace_id"]
                   for s in detail["spans"])
        with pytest.raises(TraceNotFound):
            service.debug_trace("does_not_exist")

    def test_slowlog_links_query_traces(self):
        obs.enable()
        service = product_service()
        service.query("g1", PLACED)
        service.query("g1", PLACED)  # cache hit, same fingerprint
        payload = service.debug_slowlog()
        [row] = payload["slowlog"]
        assert row["count"] == 2 and row["cached"] == 1
        tid = row["slowest"][0]["trace_id"]
        assert service.traces.get(tid) is not None

    def test_slo_counts_client_errors_as_no_burn(self):
        service = product_service()
        with pytest.raises(Exception):
            service.query("g1", "NOT A QUERY (")  # 400-class
        payload = service.debug_slo()
        by_spec = {row["spec"]: row for row in payload["slos"]}
        err = by_spec["errors:*@0.99"]
        assert all(w["bad"] == 0 for w in err["windows"])

    def test_trace_memory_bounded_by_retention_policy(self):
        """With tracing on, the only long-lived request roots are the
        ones retention kept: nothing else stages finished spans."""
        policy = RetentionPolicy(capacity=2, error_capacity=1,
                                 slow_capacity=1)
        bound = (policy.capacity + policy.error_capacity
                 + policy.slow_capacity)
        obs.enable()
        service = GraphService(retention=policy)
        service.create_graph(graph_id="bounded", scenario="product",
                             seed=7)
        for i in range(3 * bound):
            service.query("bounded", PLACED, use_cache=i % 2 == 0)
        gc.collect()
        live_roots = [o for o in gc.get_objects()
                      if isinstance(o, Span) and o.parent is None
                      and o.attributes.get("graph") == "bounded"]
        assert service.traces.stats()["ingested"] == 3 * bound + 1
        assert 0 < len(live_roots) <= bound

    def test_telemetry_works_without_tracing(self):
        # obs disabled: no spans retained, but slowlog/SLO still run.
        service = product_service()
        service.query("g1", PLACED)
        assert service.traces.stats()["ingested"] == 0
        assert service.debug_slowlog()["stats"]["recorded"] == 1
        assert service.debug_slo()["recorded"] == 2


class TestTracingHTTP:
    @pytest.fixture()
    def server(self):
        obs.enable()
        service = product_service()
        handle = start_server(service)
        yield handle
        handle.shutdown()

    def test_header_roundtrip_and_trace_fetch(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        body = json.dumps({"query": PLACED})
        conn.request("POST", "/graphs/g1/query", body=body,
                     headers={"Content-Type": "application/json",
                              "X-Repro-Trace": "client_chosen_1"})
        response = conn.getresponse()
        response.read()
        assert response.status == 200
        assert response.getheader("X-Repro-Trace") \
            == "client_chosen_1"
        conn.request("GET", "/debug/traces/client_chosen_1")
        response = conn.getresponse()
        detail = json.loads(response.read())
        assert response.status == 200
        names = [s["name"] for s in detail["spans"]]
        assert "serve.request" in names
        conn.close()

    def test_minted_id_echoed_when_no_header(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        tid = response.getheader("X-Repro-Trace")
        assert tid and len(tid) == 16
        conn.close()

    def test_malformed_header_rejected(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        conn.request("GET", "/healthz",
                     headers={"X-Repro-Trace": "bad id with spaces"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "bad trace id" in payload["message"]
        conn.close()

    def test_distributed_algorithm_trace_end_to_end(self, server):
        """The acceptance path: a traced request through the dist
        runtime, its span tree fetched back by id."""
        client = ServeClient(server.base_url)
        status, _ = client.request(
            "POST", "/graphs/g1/algorithms/pagerank",
            {"distributed": True, "shards": 2})
        assert status == 200
        tid = client.last_trace_id
        status, detail = client.request("GET",
                                        f"/debug/traces/{tid}")
        assert status == 200
        workers = [s for s in detail["spans"]
                   if s["name"] == "dist.worker.superstep"]
        assert workers, "trace must include dist worker supersteps"
        assert all(s["attributes"]["trace_id"] == tid
                   for s in detail["spans"])
        assert {"serve.request", "dist.run", "dist.superstep"} \
            <= {s["name"] for s in detail["spans"]}
        client.close()

    def test_debug_endpoints_and_missing_trace(self, server):
        client = ServeClient(server.base_url)
        client.request("POST", "/graphs/g1/query", {"query": PLACED})
        status, slowlog = client.request("GET", "/debug/slowlog")
        assert status == 200 and slowlog["slowlog"]
        status, slo = client.request("GET", "/debug/slo")
        assert status == 200
        assert slo["schema"] == "repro.obs.slo/v1"
        status, listing = client.request("GET",
                                         "/debug/traces?limit=2")
        assert status == 200 and len(listing["traces"]) <= 2
        status, error = client.request("GET", "/debug/traces/nope")
        assert status == 404 and error["error"] == "TraceNotFound"
        client.close()

    def test_prometheus_exposition(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        conn.request("GET", "/metrics?format=prom")
        response = conn.getresponse()
        text = response.read().decode()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith(
            "text/plain")
        assert "# TYPE serve_requests_total counter" in text
        assert 'serve_request_ms_bucket{le="+Inf"}' in text
        assert "serve_request_ms_count" in text
        conn.request("GET", "/metrics?format=nope")
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "unknown metrics format" in payload["message"]
        conn.close()


class TestPrometheusRendering:
    def test_counters_gauges_histograms(self):
        from repro.obs.export import render_prometheus
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("demo.count", 3)
        registry.set_gauge("demo.gauge", 1.5)
        registry.observe("demo.lat_ms", 0.5)
        registry.observe("demo.lat_ms", 250.0)
        text = render_prometheus(registry)
        assert "# TYPE demo_count_total counter" in text
        assert "demo_count_total 3" in text
        assert "demo_gauge 1.5" in text
        assert "demo_lat_ms_count 2" in text
        assert "demo_lat_ms_sum 250.5" in text
        # buckets are cumulative and close with +Inf
        inf_line = [ln for ln in text.splitlines()
                    if 'le="+Inf"' in ln]
        assert inf_line == ['demo_lat_ms_bucket{le="+Inf"} 2']

    def test_name_sanitization(self):
        from repro.obs.export import _prom_name

        assert _prom_name("serve.request_ms") == "serve_request_ms"
        assert _prom_name("9lives") == "_9lives"


class TestTracingOverhead:
    def test_traced_request_within_noise_guard(self):
        """The trace-scope wrapper on the cached-query path must sit
        within the bench harness's own noise guards vs. the same loop
        without it — the same obs-off comparison the bench compare
        gate runs between serve.request_traced and
        serve.query_cached."""
        service = product_service()
        service.query("g1", PLACED)  # warm the cache

        def median_of(repetitions: int, traced: bool) -> float:
            timings = []
            for _ in range(repetitions):
                start = time.perf_counter_ns()
                for _ in range(20):
                    if traced:
                        with trace_scope():
                            service.query("g1", PLACED)
                    else:
                        service.query("g1", PLACED)
                timings.append(
                    (time.perf_counter_ns() - start) / 1e6)
            return sorted(timings)[len(timings) // 2]

        base_ms = median_of(5, traced=False)
        traced_ms = median_of(5, traced=True)
        guard = max(bench.REL_THRESHOLD * base_ms,
                    bench.MIN_EFFECT_MS)
        assert traced_ms - base_ms <= guard, (
            f"traced cached-query loop {traced_ms:.2f}ms vs "
            f"untraced {base_ms:.2f}ms exceeds noise guard "
            f"{guard:.2f}ms")


@pytest.mark.slo_smoke
class TestSLOSmoke:
    """Satellite: the whole telemetry loop over a live server."""

    def test_traffic_run_is_traceable_and_graded(self):
        from repro.serve.traffic import run_traffic

        obs.enable()
        service = GraphService()
        handle = start_server(service)
        try:
            report = run_traffic(handle.base_url, seed=11, clients=2,
                                 requests=6)
            assert report["schema"] == "repro.serve.traffic/v2"
            assert report["slo"], "run must be SLO-graded"
            assert all(0.0 <= row["compliance"] <= 1.0
                       for row in report["slo"])
            # cache figures are this run's deltas, so they cannot
            # exceed this run's own request count
            assert report["cache"]["hits"] \
                + report["cache"]["misses"] <= \
                report["total_requests"]
            # every request got a trace id; one is fetchable
            client = ServeClient(handle.base_url)
            status, _ = client.request(
                "POST", "/graphs/traffic/query",
                {"query": PLACED})
            assert status == 200 and client.last_trace_id
            status, detail = client.request(
                "GET", f"/debug/traces/{client.last_trace_id}")
            assert status == 200
            assert detail["spans"][0]["name"] == "serve.request"
            client.close()
        finally:
            handle.shutdown()

    def test_live_console_renders(self):
        from repro.obs import live

        obs.enable()
        service = product_service()
        handle = start_server(service)
        try:
            service.query("g1", PLACED)
            snap = live.snapshot(handle.base_url)
            dashboard = live.render_dashboard(snap)
            assert "status=ok" in dashboard
            assert "slo:" in dashboard
            assert "latency:query<250ms@0.95" in dashboard
            assert "retained=" in dashboard
        finally:
            handle.shutdown()

    def test_live_cli_one_frame(self, capsys):
        from repro.obs import live

        obs.enable()
        service = product_service()
        handle = start_server(service)
        try:
            rc = live.main(["--url", handle.base_url,
                            "--iterations", "1"])
        finally:
            handle.shutdown()
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro.obs.live frame 1" in out
        assert "slowlog" in out

    def test_live_cli_unreachable_server(self, capsys):
        from repro.obs import live

        rc = live.main(["--url", "http://127.0.0.1:9",
                        "--iterations", "1"])
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().out
