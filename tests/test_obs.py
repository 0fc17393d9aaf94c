"""The unified observability layer: spans, metrics, exporters, wiring."""

import gc
import json
import math
import threading

import pytest

from repro import obs
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.spans import NULL_SPAN, Span


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with tracing off and nothing stored."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def live_spans(name):
    """Span objects named ``name`` still reachable after a collection."""
    gc.collect()
    return [o for o in gc.get_objects()
            if isinstance(o, Span) and o.name == name]


class TestSpans:
    def test_disabled_by_default_returns_null_singleton(self):
        assert not obs.is_enabled()
        first = obs.span("a")
        second = obs.span("b", attr=1)
        assert first is NULL_SPAN
        assert second is NULL_SPAN  # no span objects on the hot path

    def test_null_span_is_inert(self):
        seen = []
        obs.subscribe(seen.append)
        try:
            with obs.span("ignored") as sp:
                sp.set("key", "value")
                sp["other"] = 2
        finally:
            obs.unsubscribe(seen.append)
        assert sp.attributes == {}
        assert sp.duration_ms == 0.0
        assert seen == []  # the no-op span never reaches the tracer

    def test_nesting_and_attribute_capture(self):
        with obs.capture() as trace:
            with obs.span("outer", depth=0) as outer:
                with obs.span("inner", depth=1) as inner:
                    inner.set("extra", "x")
        assert inner.parent is outer
        assert outer.children == [inner]
        assert outer.attributes == {"depth": 0}
        assert inner.attributes == {"depth": 1, "extra": "x"}
        roots = trace.roots
        assert roots == [outer]
        assert [s.name for s in outer.walk()] == ["outer", "inner"]

    def test_durations_are_recorded_and_nested(self):
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                pass
        assert outer.duration_ms >= inner.duration_ms >= 0.0
        assert outer.closed and inner.closed

    def test_current_span_tracks_stack(self):
        obs.enable()
        assert obs.current_span() is None
        with obs.span("outer") as outer:
            assert obs.current_span() is outer
            with obs.span("inner") as inner:
                assert obs.current_span() is inner
            assert obs.current_span() is outer
        assert obs.current_span() is None

    def test_exception_marks_span_and_unwinds(self):
        with obs.capture() as trace:
            with pytest.raises(ValueError):
                with obs.span("boom") as sp:
                    raise ValueError("x")
        assert sp.attributes["error"] == "ValueError"
        assert obs.current_span() is None
        assert trace.roots == [sp]

    def test_subscribers_see_every_finished_span(self):
        obs.enable()
        seen = []
        obs.subscribe(seen.append)
        try:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        finally:
            obs.unsubscribe(seen.append)
        assert [s.name for s in seen] == ["inner", "outer"]

    def test_forced_span_fires_subscribers_but_is_not_retained(self):
        seen = []
        obs.subscribe(seen.append)
        try:
            with obs.forced_span("forced", k=1):
                pass
        finally:
            obs.unsubscribe(seen.append)
        assert [s.name for s in seen] == ["forced"]
        del seen
        assert live_spans("forced") == []  # nothing else kept it

    def test_capture_restores_prior_state(self):
        with obs.capture() as trace:
            assert obs.is_enabled()
            with obs.span("inside"):
                pass
        assert not obs.is_enabled()
        assert [s.name for s in trace.roots] == ["inside"]

    def test_capture_keeps_roots_across_reset(self):
        obs.enable()
        with obs.span("before"):
            pass
        with obs.capture() as trace:
            obs.reset()
            with obs.span("after-reset") as root:
                pass
        assert trace.roots == [root]

    def test_nested_captures_see_their_own_roots(self):
        with obs.capture() as outer:
            with obs.span("a"):
                pass
            with obs.capture() as inner:
                with obs.span("b"):
                    pass
            assert obs.is_enabled()  # the inner exit restored "on"
            with obs.span("c"):
                pass
        assert [s.name for s in inner.roots] == ["b"]
        assert [s.name for s in outer.roots] == ["a", "b", "c"]

    def test_capture_loses_no_roots_under_thread_churn(self):
        import sys

        n_threads, per_thread = 8, 200
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                with obs.span("churn"):
                    with obs.span("child"):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.capture() as trace:
                threads = [threading.Thread(target=worker)
                           for _ in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        roots = trace.roots
        assert len(roots) == n_threads * per_thread
        assert {s.name for s in roots} == {"churn"}

    def test_threads_get_independent_subtrees(self):
        done = threading.Event()

        def worker():
            with obs.span("worker-root"):
                pass
            done.set()

        with obs.capture() as trace:
            with obs.span("main-root") as main_root:
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        assert done.is_set()
        names = {s.name for s in trace.roots}
        assert names == {"worker-root", "main-root"}
        assert main_root.children == []  # worker span did not nest here

    def test_find_by_name(self):
        obs.enable()
        with obs.span("root") as root:
            for i in range(3):
                with obs.span("step", i=i):
                    pass
        assert len(root.find("step")) == 3


class TestMetrics:
    def test_counter_accumulates_without_overflow(self):
        counter = Counter("big")
        huge = 2 ** 62
        for _ in range(8):
            counter.inc(huge)
        counter.inc(1)
        assert counter.value == 8 * huge + 1  # exact, arbitrary precision

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 3)
        registry.set_gauge("depth", 7)
        assert registry.gauge("depth").value == 7

    def test_histogram_bucket_edges(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (1.0, 1.5, 2.0, 5.0, 6.0):
            h.observe(value)
        # 1.0 lands in the <=1 bucket; 1.5 and 2.0 in <=2; 5.0 in <=5;
        # 6.0 overflows.
        assert h.counts == [1, 2, 1, 1]
        assert h.min == 1.0 and h.max == 6.0

    def test_histogram_percentiles_at_edges(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        h.observe(1.0)
        h.observe(2.0)
        # n=2: p50 -> rank 1 lands in the <=1 bucket whose only value is
        # the observed min; p99 -> rank 2 in the <=2 bucket.
        assert h.percentile(50) == 1.0
        assert h.percentile(99) == 2.0
        assert h.percentile(100) == 2.0

    def test_histogram_percentile_interpolates_within_bucket(self):
        # Ten observations spread across the (1, 2] bucket: the
        # interpolated percentile moves through the bucket instead of
        # snapping to its upper bound, and the error stays within one
        # bucket width of the exact value.
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        values = [1.0 + 0.1 * i for i in range(1, 11)]  # 1.1 .. 2.0
        for v in values:
            h.observe(v)
        p20 = h.percentile(20)
        p80 = h.percentile(80)
        assert 1.0 < p20 < p80 <= 2.0
        # exact p20 of the sample is 1.2, p80 is 1.8 — both within the
        # documented one-bucket-width bound.
        assert abs(p20 - 1.2) <= 1.0
        assert abs(p80 - 1.8) <= 1.0
        # monotone in p
        previous = 0.0
        for p in (10, 25, 50, 75, 90, 99, 100):
            value = h.percentile(p)
            assert value >= previous
            previous = value

    def test_histogram_percentile_never_below_observed_min(self):
        # Regression: a single observation high in its bucket must
        # report itself at every percentile, not a bucket-interpolated
        # value below the observed minimum.
        h = Histogram("h")  # default ms buckets; 700 -> (500, 1000]
        h.observe(700.0)
        for p in (1, 50, 95, 99, 100):
            assert h.percentile(p) == 700.0
        # Same clamp with several observations piled in one bucket:
        # p50 of two identical 700s used to interpolate to 600.
        h2 = Histogram("h2")
        h2.observe(700.0)
        h2.observe(700.0)
        assert h2.percentile(50) == 700.0
        h3 = Histogram("h3")
        for v in (0.7, 0.71, 0.72):
            h3.observe(v)
        for p in (1, 50, 99):
            assert h3.percentile(p) >= h3.min

    def test_histogram_overflow_reports_observed_max(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(10.0)
        h.observe(40.0)
        # Past the last bound there is no upper edge to report, so any
        # rank landing in the overflow bucket resolves to the max seen.
        assert h.percentile(50) == 40.0
        assert h.percentile(99) == 40.0

    def test_histogram_empty_and_summary(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        assert h.percentile(50) is None
        assert h.summary()["count"] == 0
        h.observe(0.5)
        summary = h.summary()
        assert summary["count"] == 1
        assert summary["mean"] == pytest.approx(0.5)
        # With a single observation, interpolation collapses the bucket
        # to the observed value itself (min == max == 0.5).
        assert summary["p50"] == 0.5
        assert math.isclose(summary["sum"], 0.5)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_registry_get_or_create_and_summary(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        registry.inc("a")
        registry.observe("lat", 0.4)
        registry.set_gauge("g", 1)
        summary = registry.summary()
        assert summary["counters"] == {"a": 3}
        assert summary["gauges"] == {"g": 1}
        assert summary["histograms"]["lat"]["count"] == 1
        registry.reset()
        assert registry.counter("a").value == 0
        assert registry.histogram("lat").count == 0

    def test_registry_threaded_increments(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                registry.inc("hits")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("hits").value == 4000


class TestExport:
    def build_trace(self):
        obs.enable()
        with obs.span("root", kind="demo") as root:
            with obs.span("child", i=0):
                pass
            with obs.span("child", i=1) as second:
                second.set("values", {1: 0.5, "x": (1, 2)})
        return root

    def test_jsonl_round_trip(self):
        root = self.build_trace()
        dump = obs.to_jsonl([root])
        assert len(dump.splitlines()) == 3
        for line in dump.splitlines():
            json.loads(line)  # every line is standalone JSON
        roots = obs.from_jsonl(dump)
        assert len(roots) == 1
        rebuilt = roots[0]
        assert rebuilt.name == "root"
        assert rebuilt.attributes == {"kind": "demo"}
        assert [c.name for c in rebuilt.children] == ["child", "child"]
        assert rebuilt.children[0].parent_id == rebuilt.span_id
        # non-string dict keys and tuples were coerced to JSON-safe forms
        assert rebuilt.children[1].attributes["values"] == {
            "1": 0.5, "x": [1, 2]}
        assert rebuilt.duration_ms == pytest.approx(root.duration_ms)

    def test_jsonl_round_trip_deep_tree(self):
        """A deeply nested span tree survives serialization with parent
        links, ordering, attributes and durations intact."""
        depth = 40
        with obs.capture() as trace:
            opened = []
            for level in range(depth):
                sp = obs.span("level", depth=level)
                sp.__enter__()
                opened.append(sp)
            for sp in reversed(opened):
                sp.__exit__(None, None, None)
        roots = obs.from_jsonl(obs.to_jsonl(trace.roots))
        assert len(roots) == 1
        chain = []
        node = roots[0]
        while True:
            chain.append(node)
            if not node.children:
                break
            assert len(node.children) == 1
            assert node.children[0].parent_id == node.span_id
            node = node.children[0]
        assert len(chain) == depth
        assert [n.attributes["depth"] for n in chain] == list(range(depth))
        # parents fully contain children, all the way down
        for parent, child in zip(chain, chain[1:]):
            assert parent.duration_ms >= child.duration_ms

    def test_jsonl_round_trip_threaded_spans(self):
        """Spans opened and closed on multiple threads keep per-thread
        parentage and attributes through a serialize/parse cycle."""
        n_threads, n_children = 4, 5
        barrier = threading.Barrier(n_threads)

        def worker(tid):
            barrier.wait()
            with obs.span("thread-root", tid=tid):
                for i in range(n_children):
                    with obs.span("step", tid=tid, i=i):
                        pass

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(n_threads)]
        with obs.capture() as trace:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        roots = obs.from_jsonl(obs.to_jsonl(trace.roots))
        assert len(roots) == n_threads
        seen_tids = set()
        for root in roots:
            tid = root.attributes["tid"]
            seen_tids.add(tid)
            assert root.name == "thread-root"
            assert [c.name for c in root.children] == ["step"] * n_children
            # children stayed attached to their own thread's root, in
            # the order they closed there
            assert [c.attributes["tid"] for c in root.children] == (
                [tid] * n_children)
            assert [c.attributes["i"] for c in root.children] == list(
                range(n_children))
            assert all(c.parent_id == root.span_id for c in root.children)
        assert seen_tids == set(range(n_threads))

    def test_jsonl_of_captured_roots(self):
        with obs.capture() as trace:
            self.build_trace()
        roots = obs.from_jsonl(obs.to_jsonl(trace.roots))
        assert [r.name for r in roots] == ["root"]

    def test_render_tree_shows_nesting_and_attributes(self):
        root = self.build_trace()
        text = obs.render_tree([root])
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert "kind='demo'" in lines[0]
        assert "ms" in lines[0]
        assert obs.render_tree([]) == "(no spans recorded)"

    def test_observability_dict_embeds_spans_and_metrics(self):
        root = self.build_trace()
        obs.get_registry().inc("demo.counter", 5)
        bundle = obs.observability_dict([root])
        assert len(bundle["spans"]) == 3
        assert bundle["metrics"]["counters"]["demo.counter"] == 5
        json.dumps(bundle)  # embeddable in BENCH_*.json as-is
