"""Tests of the benchmark's own instruments.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import common, inputs, stats
from perfbench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parents[2]


# -- the "ten samples beyond" percentile rule -------------------------------

@pytest.mark.parametrize("n, expected", [
    (9, None),     # no percentile has ten samples beyond it
    (20, 50.0),    # p50 leaves 10 beyond, p60 only 8
    (34, 70.0),
    (100, 90.0),   # p90 leaves 10 beyond, p95 only 5
    (199, 90.0),   # p95 would leave 9
    (200, 95.0),
    (1000, 99.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 95) == 95
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.beyond(100, 95) == 5


# -- failures count as misses ------------------------------------------------

def test_failed_operation_misses_every_latency_limit():
    log = common.OpLog(("read",))
    for ms in range(1, 20):
        log.ok("read", float(ms))
    log.miss("read", "HTTP 503")
    assert log.attempted == 20 and log.failed == 1
    # The failure sorts above the slowest success ...
    assert log.p("read", 100.0) == stats.MISSED_MS
    # ... and pushes every percentile up by one rank.
    assert log.p("read", 50.0) == 10.0
    assert log.median_ms("read") == 10.0
    assert log.errors == ["read: HTTP 503"]


def test_mostly_failed_class_reports_the_miss_sentinel():
    log = common.OpLog(("write",))
    log.ok("write", 1.0)
    log.miss("write", "timeout")
    log.miss("write", "timeout")
    assert log.p("write", 50.0) == stats.MISSED_MS
    assert math.isinf(stats.percentile(log.samples["write"], 50.0))


def test_derived_class_is_not_counted_twice():
    log = common.OpLog(("read", "read_miss"), derived=("read_miss",))
    log.ok("read", 5.0)
    log.ok("read_miss", 5.0)
    log.miss("read", "reset")
    log.samples["read_miss"].append(stats.MISSED)
    assert log.attempted == 2 and log.failed == 1


def test_end_to_end_throughput_excludes_failures():
    log = common.OpLog(("a", "b", "c", "d"))
    for cls in log.classes:
        for ms in range(1, 31):
            log.ok(cls, float(ms))
    log.miss("a", "refused")
    notes: list[str] = []
    metrics = common.end_to_end(
        log, slots=("a", "b", "c", "d"), tails=(50.0, 50.0),
        window_s=2.0, setup_s=[3.0, 1.0, 2.0], peak_rss_mb=10.0,
        notes=notes)
    assert metrics["ops_per_s"] == (60.0, "1/s")
    assert metrics["setup_s"] == (2.0, "s")
    assert metrics["op2_tail_ms"] == (15.0, "ms")
    assert any(n.startswith("tail a: p50 of 31 samples") for n in notes)


# -- self time over overlapping children ------------------------------------

def test_self_time_counts_overlapping_children_once():
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    # Covered inside [0, 10]: [1, 6] and [8, 10] -> 7.
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(3.0)


def test_self_time_edge_cases():
    assert stats.self_time(0.0, 5.0, []) == 5.0
    assert stats.self_time(0.0, 5.0, [(6.0, 9.0)]) == 5.0
    assert stats.self_time(0.0, 5.0, [(0.0, 5.0), (1.0, 2.0)]) == 0.0
    assert stats.union_length([(2.0, 3.0), (0.0, 1.0), (0.5, 2.5)]) \
        == pytest.approx(3.0)


def test_recorder_self_time_and_trace_ids():
    rec = SpanRecorder()
    with rec.span("op.a") as outer:
        with rec.span("child"):
            pass
    with rec.span("op.b") as other:
        pass
    child = rec.named("child")[0]
    assert child.parent_id == outer.span_id
    assert child.trace_id == outer.trace_id != other.trace_id
    kids = rec.children()
    assert rec.self_ms(outer, kids) == pytest.approx(
        outer.ms - child.ms)


# -- /metrics deltas ---------------------------------------------------------

def test_histogram_delta_is_delta_sum_over_delta_count():
    before = {"histograms": {"serve.request_ms": {"count": 10,
                                                  "sum": 100.0}},
              "counters": {"serve.shed": 2}}
    after = {"histograms": {"serve.request_ms": {"count": 14,
                                                 "sum": 180.0}},
             "counters": {"serve.shed": 5, "query.executed": 7}}
    assert stats.histogram_delta_mean(
        before, after, "serve.request_ms") == pytest.approx(20.0)
    assert stats.counter_delta(before, after, "serve.shed") == 3
    # An instrument first created during the window starts from zero.
    assert stats.counter_delta(before, after, "query.executed") == 7


def test_histogram_delta_without_new_observations_is_zero():
    snap = {"histograms": {"h": {"count": 3, "sum": 9.0}}}
    assert stats.histogram_delta_mean(snap, snap, "h") == 0.0
    assert stats.histogram_delta_mean({}, {}, "h") == 0.0


# -- wrapping calls from outside ---------------------------------------------

class _Snapshot:
    @classmethod
    def build(cls, x):
        return (cls, x)


def test_wrapped_spans_module_classmethod_and_instance_calls():
    module = types.SimpleNamespace(kernel=lambda x: x * 2)

    class Store:
        def save(self, item):
            return len(item)

    store = Store()
    original_kernel = module.kernel
    rec = SpanRecorder()
    with rec.wrapped([(module, "kernel", "k"),
                      (_Snapshot, "build", "snap"),
                      (store, "save", "save")]):
        assert module.kernel(3) == 6
        assert _Snapshot.build(1) == (_Snapshot, 1)
        assert store.save("abc") == 3
    assert [sp.name for sp in rec.spans] == ["k", "snap", "save"]
    assert module.kernel is original_kernel
    assert isinstance(vars(_Snapshot)["build"], classmethod)
    assert "save" not in vars(store)


# -- input fingerprints ------------------------------------------------------

def test_changed_generator_output_is_refused():
    digest = inputs.pinned()["rmat"]["0"]
    assert inputs.check("rmat", 0, digest) == "pinned"
    with pytest.raises(inputs.FingerprintMismatch):
        inputs.check("rmat", 0, "0" * 16)
    assert inputs.check("rmat", 10 ** 9, "anything") == "unpinned"


def test_pinned_inputs_match_the_generators():
    assert inputs.check("rmat", 3, inputs.rmat_digest(
        inputs.rmat(3))) == "pinned"
    assert inputs.check("product", 3, inputs.payload_digest(
        inputs.product_payload(3))) == "pinned"


# -- the benchmark without the program ---------------------------------------

def test_fails_without_printing_a_result_when_the_program_is_absent(
        tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytics",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
