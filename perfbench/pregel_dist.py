"""``pregel-dist``: the sharded Pregel runtime on the RMAT graph.

Each pass runs :func:`repro.dist.run_distributed_pregel` at k=4 with a
checkpoint every superstep into an ``InMemoryCheckpointStore`` the
benchmark passes in: PageRank (10 supersteps), connected components,
and PageRank again with worker ``w1`` killed at superstep 5. It then
runs the same PageRank spec on the single-process engine
(:func:`repro.dgps.run_pregel`), the rung below the sharded runtime.
Checkpointing, message routing and recovery carry the time here; no
``repro.algorithms`` kernel or serve code runs. PageRank rewrites all
state every superstep while components converges, so a change to how
checkpoints store unchanged state shows on one and not the other.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext

from perfbench import common, inputs
from perfbench.spans import SpanRecorder

SLOTS = ("pagerank", "components", "pagerank_fault", "engine")
#: The 25+ passes a 35-s window holds at HEAD leave 10+ samples
#: beyond p60.
TAILS = (60.0, 60.0)
SHARDS = 4
PAGERANK_SUPERSTEPS = 10
KILL = ("w1", 5)
PAGERANK_L1 = 1e-9

#: DistributedResult counts summed per pass; all repeat exactly.
COUNTS = ("dist.messages_routed", "dist.messages_combined",
          "dist.messages_local", "dist.supersteps", "dist.recoveries",
          "dist.replayed_supersteps", "dist.checkpoint.bytes")


def _counts(result) -> dict[str, int]:
    return {
        "dist.messages_routed": result.routed_messages(),
        "dist.messages_combined": result.combined_messages(),
        "dist.messages_local": sum(s.messages_local
                                   for s in result.stats),
        "dist.supersteps": result.supersteps,
        "dist.recoveries": result.recoveries,
        "dist.replayed_supersteps": result.replayed_supersteps(),
        "dist.checkpoint.bytes": result.checkpoint_bytes,
    }


def _engine(graph, spec):
    import repro.dgps

    return repro.dgps.run_pregel(
        graph, spec.program, initial_value=spec.initial_value,
        combiner=spec.combiner, aggregators=spec.aggregators,
        max_supersteps=spec.max_supersteps)


def run(seed: int, seconds: float, trace: bool) -> common.Result:
    from repro.dgps import connected_components_spec, pagerank_spec
    from repro.dist import (
        FaultPlan,
        InMemoryCheckpointStore,
        run_distributed_pregel,
    )

    graph, setup, described = inputs.timed_rmat(seed)
    notes = [described]

    oracle = {
        "pagerank": _engine(graph, pagerank_spec(
            graph, supersteps=PAGERANK_SUPERSTEPS)).values,
        "components": _engine(graph,
                              connected_components_spec(graph)).values,
    }

    recorder = SpanRecorder()

    def one(cls: str, traced: bool):
        if cls == "engine":
            spec = pagerank_spec(graph, supersteps=PAGERANK_SUPERSTEPS)
            with recorder.span("dgps.run_pregel") if traced \
                    else nullcontext():
                return _engine(graph, spec)
        if cls == "components":
            spec = connected_components_spec(graph)
        else:
            spec = pagerank_spec(graph, supersteps=PAGERANK_SUPERSTEPS)
        store = InMemoryCheckpointStore()
        plan = FaultPlan().kill(*KILL) if cls == "pagerank_fault" \
            else None
        wrap = (recorder.wrapped([
            (store, "save", "dist.checkpoint.save"),
            (store, "load", "dist.checkpoint.load"),
            (store, "load_latest", "dist.checkpoint.load_latest")])
            if traced else nullcontext())
        with wrap, (recorder.span("dist.run_distributed_pregel")
                    if traced else nullcontext()):
            return run_distributed_pregel(
                graph, spec, k=SHARDS, checkpoint_store=store,
                checkpoint_every=1, fault_plan=plan, seed=0)

    log = common.OpLog(SLOTS)
    traced_log = common.OpLog(SLOTS)
    first: dict[str, dict] = {}
    pass_counts: list[dict[str, int]] = []
    check_failures: list[str] = []
    passes = traced_passes = 0
    window = common.Window(seconds)
    while window.left() > 0:
        traced = trace and passes % 2 == 0
        counts = dict.fromkeys(COUNTS, 0)
        for cls in SLOTS:
            # Start each op from a collected heap, so garbage the last op
            # left is not charged to this one.
            gc.collect()
            with recorder.span(f"op.{cls}") if traced \
                    else nullcontext():
                start = time.perf_counter()
                result = one(cls, traced)
                ms = (time.perf_counter() - start) * 1000.0
            (traced_log if traced else log).ok(cls, ms)
            values = result.values
            if first.setdefault(cls, values) != values:
                check_failures.append(
                    f"{cls}: pass {passes} values differ from pass 0")
            if cls != "engine":
                for key, value in _counts(result).items():
                    counts[key] += value
        if traced:
            pass_counts.append(counts)
            traced_passes += 1
        passes += 1
    elapsed = window.elapsed()
    rss = common.peak_rss_mb()

    check_failures += _check(first, oracle)
    notes.append(f"{passes} passes in {elapsed:.1f} s "
                 f"({traced_passes} traced)")
    named: dict[str, float] = {}
    if not trace:
        metrics = common.end_to_end(
            log, slots=SLOTS, tails=TAILS, window_s=elapsed,
            setup_s=setup, peak_rss_mb=rss, notes=notes)
        named = {
            "dist_pagerank_ms": log.p("pagerank", 50.0),
            "dist_components_ms": log.p("components", 50.0),
            "dist_pagerank_fault_ms": log.p("pagerank_fault", 50.0),
            "engine_pagerank_ms": log.p("engine", 50.0),
        }
    else:
        metrics = _per_layer(recorder, log, traced_log, pass_counts,
                             notes)
    return common.Result(metrics=metrics,
                         attempted=log.attempted + traced_log.attempted,
                         failed=log.failed + traced_log.failed,
                         check_failures=check_failures, named=named,
                         notes=notes, recorder=recorder)


def _check(first: dict[str, dict], oracle: dict[str, dict]) -> list[str]:
    """Sharded results against the single-process engine, and the
    faulted run against the clean one."""
    failures = []
    if first["components"] != oracle["components"]:
        failures.append("dist components differ from run_pregel")
    for cls in ("pagerank", "engine"):
        got = first[cls]
        if set(got) != set(oracle["pagerank"]):
            failures.append(f"{cls} covers other vertices than "
                            f"run_pregel")
            continue
        l1 = sum(abs(got[v] - oracle["pagerank"][v]) for v in got)
        if l1 > PAGERANK_L1:
            failures.append(f"{cls} L1 distance {l1:.3g} from "
                            f"run_pregel exceeds {PAGERANK_L1:g}")
    if first["pagerank_fault"] != first["pagerank"]:
        failures.append("pagerank with a worker killed differs from "
                        "the clean run")
    return failures


def _per_layer(recorder: SpanRecorder, log: common.OpLog,
               traced_log: common.OpLog,
               pass_counts: list[dict[str, int]],
               notes: list[str]) -> dict[str, tuple[float, str]]:
    n = max(1, len(pass_counts))
    kids = recorder.children()
    runs = recorder.named("dist.run_distributed_pregel")
    metrics: dict[str, tuple[float, str]] = {
        key: (sum(c[key] for c in pass_counts) / n,
              "B" if key.endswith("bytes") else "count")
        for key in COUNTS}
    metrics["dist.checkpoint.save_ms"] = (
        recorder.median_ms("dist.checkpoint.save"), "ms")
    metrics["dist.checkpoint.saves"] = (
        len(recorder.named("dist.checkpoint.save")) / n, "count")
    metrics["dist.checkpoint.load_ms"] = (
        recorder.median_ms("dist.checkpoint.load"), "ms")
    metrics["dist.self_ms"] = (
        sum(recorder.self_ms(sp, kids) for sp in runs)
        / max(1, len(runs)), "ms")
    metrics["dgps.engine_ms"] = (recorder.median_ms("dgps.run_pregel"),
                                 "ms")
    metrics["trace.overhead_pct"] = (
        common.overhead_pct(log, traced_log, notes), "%")
    save_share = (sum(sp.ms for sp in recorder.named(
        "dist.checkpoint.save")) / max(1e-9, sum(sp.ms for sp in runs)))
    notes.append(f"checkpoint save time is {100 * save_share:.1f}% of "
                 f"distributed run time ({len(runs)} traced runs)")
    notes.append("unmeasured on pregel-dist: serve.*, query.*, "
                 "graphdb.*, obs.*, workloads.*, algorithms.*, graphs.* "
                 "(not run); reported as 0")
    notes.append("exact per pass: " + ", ".join(
        COUNTS + ("dist.checkpoint.saves",)))
    return metrics
