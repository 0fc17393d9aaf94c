"""``serve-mixed``: the HTTP service under a closed-loop mixed load.

``python -m repro.serve --port 0`` runs as its own process. The
benchmark uploads the product graph with an explicit vertex/edge
payload, then drives it from two keep-alive connections, each standing
for a caller that waits for its reply before sending the next request
(closed loop, no think time). About 3 in 4 requests are reads (four
``MATCH`` texts), 1 in 5 a one-``set_property`` write (each connection
on its own half of the customers) and 1 in 20 a local ``pagerank``
algorithm request. Writes bump the data version between reads, so
cache misses come from invalidation, not capacity.

This is the only workload that crosses the transport, admission, the
query cache, the executor and graph-database transactions. The load
generator uses nothing but :mod:`http.client`, so a change to the
program's own client cannot change the measurement. The server's side
of each figure comes from ``/metrics`` deltas and ``/proc``.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from perfbench import common, inputs, stats
from perfbench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent

READS = (
    "MATCH (c:Customer)-[:PLACED]->(o:Order) RETURN c, o",
    "MATCH (p:Product) RETURN p",
    "MATCH (o:Order)-[:CONTAINS]->(p:Product) RETURN o, p",
    "MATCH (o:Order)-[:PAID_BY]->(p:Payment) RETURN o, p",
)
MIX = (("read", 0.75), ("write", 0.20), ("algo", 0.05))
CLIENTS = 2
GRAPH_ID = "bench"
WRITE_KEY = "bench_score"
ALGORITHM = "pagerank"
RUNNER = "Ranking & Centrality Scores"
#: One runner seed for every algorithm request: the seed picks the
#: betweenness sample, so mixing seeds would mix amounts of work.
ALGO_SEED = 0
SLOTS = ("read", "write", "algo", "read_miss")
#: ~1300 requests in 35 s at the stalled transport's rate: ~1000 reads
#: and ~260 writes leave 10+ samples beyond p95.
TAILS = (95.0, 95.0)
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
_LISTENING = re.compile(r"listening on http://([^:/\s]+):(\d+)")


def client_cpu() -> int:
    return min(os.sched_getaffinity(0))


def server_cpu() -> int:
    """The server gets a CPU of its own, away from the load generator,
    so the two do not take turns on one core by chance."""
    return max(os.sched_getaffinity(0))


class Server:
    """One ``python -m repro.serve`` process on an ephemeral port."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.serve", "--port", "0"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        os.sched_setaffinity(self.proc.pid, {server_cpu()})
        self.output: collections.deque[str] = collections.deque(
            maxlen=50)
        self._address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(BOOT_TIMEOUT_S) or self._address is None:
            self.stop()
            raise RuntimeError("server did not report a port: "
                               + " | ".join(self.output))
        self.host, self.port = self._address

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line.rstrip())
            match = _LISTENING.search(line)
            if match and self._address is None:
                self._address = (match[1], int(match[2]))
                self._ready.set()
        self._ready.set()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> None:
        """SIGINT so the server drains, then reap it (killing it if it
        does not exit)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()


def call(conn: http.client.HTTPConnection, method: str, path: str,
         body: dict | None = None) -> tuple[int, Any]:
    data = None if body is None else json.dumps(body).encode()
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    return response.status, json.loads(raw) if raw else None


def _boot_and_upload(payload: dict) -> Server:
    server = Server()
    try:
        conn = server.connect()
        try:
            status, body = call(conn, "POST", "/graphs",
                                {"graph_id": GRAPH_ID, **payload})
        finally:
            conn.close()
        if status != 201:
            raise RuntimeError(f"upload failed with {status}: {body}")
    except BaseException:
        server.stop()
        raise
    return server


class Client:
    """One keep-alive connection driving the closed loop."""

    def __init__(self, index: int, seed: int, server: Server,
                 customers: list[str]):
        self.rng = random.Random(seed * 1000003 + index)
        self.conn = server.connect()
        self.customers = customers[index::CLIENTS]
        #: vertex -> last acknowledged value
        self.writes: dict[str, int] = {}
        self.algo: list[Any] = []
        self.check_failures: list[str] = []

    def loop(self, deadline: float, log: common.OpLog,
             recorder: SpanRecorder | None) -> None:
        ops, weights = zip(*MIX)
        while time.perf_counter() < deadline:
            op = self.rng.choices(ops, weights=weights)[0]
            if op == "read":
                path = f"/graphs/{GRAPH_ID}/query"
                body: dict = {"query": self.rng.choice(READS)}
            elif op == "write":
                vertex = self.rng.choice(self.customers)
                value = self.rng.randrange(10 ** 6)
                path = f"/graphs/{GRAPH_ID}/mutate"
                body = {"operations": [{
                    "op": "set_property", "vertex": vertex,
                    "key": WRITE_KEY, "value": value}]}
            else:
                path = f"/graphs/{GRAPH_ID}/algorithms/{ALGORITHM}"
                body = {"seed": ALGO_SEED}
            start = time.perf_counter()
            try:
                if recorder is not None:
                    with recorder.span(f"op.{op}"):
                        status, reply = call(self.conn, "POST", path,
                                             body)
                else:
                    status, reply = call(self.conn, "POST", path, body)
            except (OSError, http.client.HTTPException,
                    ValueError) as exc:
                self._failed(log, op, f"{type(exc).__name__}: {exc}")
                self.conn.close()
                continue
            ms = (time.perf_counter() - start) * 1000.0
            if status != 200:
                self._failed(log, op, f"HTTP {status}: {reply}")
                continue
            log.ok(op, ms)
            if op == "read":
                if reply["row_count"] != len(reply["rows"]):
                    self.check_failures.append(
                        f"read row_count {reply['row_count']} != "
                        f"{len(reply['rows'])} rows")
                if reply.get("cache") == "miss":
                    log.ok("read_miss", ms)
            elif op == "write":
                self.writes[vertex] = value
            else:
                self.algo.append(reply["summary"])

    def _failed(self, log: common.OpLog, op: str, why: str) -> None:
        log.miss(op, why)
        if op == "read":
            # A failed read could not be served from the cache either.
            log.samples["read_miss"].append(stats.MISSED)


def _phase(clients: list[Client], seconds: float, log: common.OpLog,
           recorder: SpanRecorder | None) -> float:
    deadline = time.perf_counter() + seconds
    start = time.perf_counter()
    threads = [threading.Thread(target=c.loop,
                                args=(deadline, log, recorder),
                                daemon=True)
               for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join(seconds + 2 * REQUEST_TIMEOUT_S)
        if t.is_alive():
            raise RuntimeError("a client did not finish its phase")
    return time.perf_counter() - start


def _snapshot(server: Server) -> tuple[dict, float]:
    conn = server.connect()
    try:
        status, body = call(conn, "GET", "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return body, common.cpu_ms(server.proc.pid)


def run(seed: int, seconds: float, trace: bool) -> common.Result:
    nproc = len(os.sched_getaffinity(0))
    if CLIENTS > nproc:
        raise SystemExit(f"serve-mixed needs {CLIENTS} client threads "
                         f"but nproc is {nproc}; refusing to run")
    os.sched_setaffinity(0, {client_cpu()})
    payload = inputs.product_payload(seed)
    fingerprint = inputs.check("product", seed,
                               inputs.payload_digest(payload))
    notes = [f"input: product graph seed {seed} "
             f"({len(payload['vertices'])} V / {len(payload['edges'])} "
             f"E), fingerprint {fingerprint}",
             f"load: closed loop, {CLIENTS} keep-alive connections, "
             f"no think time"]
    customers = [v["id"] for v in payload["vertices"]
                 if v["label"] == "Customer"]

    setup = []
    server = None
    try:
        for i in range(common.SETUP_REPEATS):
            start = time.perf_counter()
            server = _boot_and_upload(payload)
            setup.append(time.perf_counter() - start)
            if i < common.SETUP_REPEATS - 1:
                server.stop()
                server = None
        return _drive(server, seed, seconds, trace, payload, customers,
                      setup, notes)
    finally:
        if server is not None:
            server.stop()


def _drive(server: Server, seed: int, seconds: float, trace: bool,
           payload: dict, customers: list[str], setup: list[float],
           notes: list[str]) -> common.Result:
    conn = server.connect()
    try:
        # Warm the lazy imports and the cache before the window.
        for text in READS:
            call(conn, "POST", f"/graphs/{GRAPH_ID}/query",
                 {"query": text})
        call(conn, "POST", f"/graphs/{GRAPH_ID}/algorithms/{ALGORITHM}",
             {"seed": ALGO_SEED})
    finally:
        conn.close()

    clients = [Client(i, seed, server, customers)
               for i in range(CLIENTS)]
    log = common.OpLog(SLOTS, derived=("read_miss",))
    traced_log = common.OpLog(SLOTS, derived=("read_miss",))
    recorder = SpanRecorder()
    try:
        before, cpu_before = _snapshot(server)
        if not trace:
            elapsed = _phase(clients, seconds, log, None)
        else:
            _phase(clients, seconds / 2, log, None)
            before, cpu_before = _snapshot(server)
            elapsed = _phase(clients, seconds / 2, traced_log, recorder)
        after, cpu_after = _snapshot(server)
        rss = common.peak_rss_mb(server.proc.pid)
        check_failures = _check(server, clients, payload)
    finally:
        for client in clients:
            client.conn.close()
    for client in clients:
        check_failures += client.check_failures
    for line in log.errors + traced_log.errors:
        notes.append(f"failed request: {line}")

    named: dict[str, float] = {}
    if not trace:
        metrics = common.end_to_end(
            log, slots=SLOTS, tails=TAILS, window_s=elapsed,
            setup_s=setup, peak_rss_mb=rss, notes=notes)
        named = {
            "read_p50_ms": log.p("read", 50.0),
            "read_p95_ms": log.p("read", 95.0),
            "write_p50_ms": log.p("write", 50.0),
            "write_p95_ms": log.p("write", 95.0),
            "algo_p50_ms": log.p("algo", 50.0),
            "read_miss_p50_ms": log.p("read_miss", 50.0),
        }
        named["serve_rps"] = metrics["ops_per_s"][0]
    else:
        metrics = _per_layer(log, traced_log, before, after,
                             cpu_after - cpu_before, notes)
    return common.Result(metrics=metrics,
                         attempted=log.attempted + traced_log.attempted,
                         failed=log.failed + traced_log.failed,
                         check_failures=check_failures, named=named,
                         notes=notes, recorder=recorder)


def _plain(value: Any) -> Any:
    """What the service's JSON encoding makes of a query value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_plain(v) for v in value]
    return repr(value)


def _row_bag(rows: list) -> list[str]:
    """Rows as a sorted list: without ``ORDER BY`` the row order follows
    set iteration, which differs between processes."""
    return sorted(json.dumps(row, sort_keys=True) for row in rows)


def _oracle(payload: dict, clients: list[Client]):
    """An in-process database loaded like the server's and given the
    same final writes. Connections write disjoint vertices, so the
    final state does not depend on how their requests interleaved."""
    from repro.graphdb import GraphDatabase

    db = GraphDatabase(directed=payload["directed"])
    with db.transaction():
        for raw in payload["vertices"]:
            db.add_vertex(raw["id"], label=raw["label"],
                          **raw["properties"])
        for raw in payload["edges"]:
            db.add_edge(raw["u"], raw["v"], weight=raw["weight"],
                        label=raw["label"], **raw["properties"])
    with db.transaction():
        for client in clients:
            for vertex, value in client.writes.items():
                db.set_vertex_property(vertex, WRITE_KEY, value)
    return db


def _check(server: Server, clients: list[Client],
           payload: dict) -> list[str]:
    """After the window: each read text uncached equals its cached
    answer and the oracle's; every algorithm reply equals the same
    computation run in-process (writes never change the topology)."""
    from repro.workloads import run_computation

    failures = []
    db = _oracle(payload, clients)
    conn = server.connect()
    try:
        for text in READS:
            path = f"/graphs/{GRAPH_ID}/query"
            answers = []
            for use_cache in (False, True, True):
                status, reply = call(conn, "POST", path,
                                     {"query": text,
                                      "use_cache": use_cache})
                if status != 200:
                    failures.append(f"check read {text!r}: HTTP {status}")
                    break
                reply.pop("cache", None)
                answers.append(reply)
            else:
                if not answers[0] == answers[1] == answers[2]:
                    failures.append(f"{text!r}: uncached and cached "
                                    f"answers differ")
                expected = _row_bag(_plain(
                    db.query(text, strict=True).rows))
                if _row_bag(answers[0]["rows"]) != expected:
                    failures.append(f"{text!r}: served rows differ from "
                                    f"the in-process oracle")
    finally:
        conn.close()
    expected = json.loads(json.dumps(_plain(
        run_computation(RUNNER, db.graph, seed=ALGO_SEED).summary)))
    for client in clients:
        for summary in client.algo:
            if summary != expected:
                failures.append(f"{ALGORITHM}: {summary} != in-process "
                                f"{expected}")
                break
    return failures


def _per_layer(log: common.OpLog, traced_log: common.OpLog,
               before: dict, after: dict, cpu_ms: float,
               notes: list[str]) -> dict[str, tuple[float, str]]:
    good = [x for c in traced_log.counted
            for x in traced_log.samples[c] if x != stats.MISSED]
    requests = max(1, len(good))
    request_ms = stats.histogram_delta_mean(before, after,
                                            "serve.request_ms")
    cache_b, cache_a = before["serve"]["cache"], after["serve"]["cache"]
    hits = cache_a["hits"] - cache_b["hits"]
    misses = cache_a["misses"] - cache_b["misses"]
    traces_b = before["serve"]["traces"]
    traces_a = after["serve"]["traces"]
    executed = stats.counter_delta(before, after, "query.executed")
    client_mean = sum(good) / requests

    metrics = {
        "serve.server.unattributed_ms": (client_mean - request_ms, "ms"),
        "serve.server.cpu_ms_per_request": (cpu_ms / requests, "ms"),
        "serve.service.request_ms": (request_ms, "ms"),
        "serve.service.handler_ms": (stats.histogram_delta_mean(
            before, after, "serve.handler_ms"), "ms"),
        "serve.admission.queue_wait_ms": (stats.histogram_delta_mean(
            before, after, "serve.queue_wait_ms"), "ms"),
        "serve.admission.shed": (
            stats.counter_delta(before, after, "serve.shed"), "count"),
        "serve.cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "serve.cache.hits": (hits, "count"),
        "serve.cache.misses": (misses, "count"),
        "query.executed": (executed, "count"),
        "query.rows_per_query": (
            stats.counter_delta(before, after, "query.rows")
            / executed if executed else 0.0, "rows"),
        "graphdb.mutations": (
            stats.counter_delta(before, after, "serve.mutations"),
            "count"),
        "obs.traces.ingested": (
            (traces_a["ingested"] - traces_b["ingested"]) / requests,
            "1/request"),
        "obs.traces.kept": (
            (traces_a["kept"] - traces_b["kept"]) / requests,
            "1/request"),
        "workloads.computation_ms": (stats.histogram_delta_mean(
            before, after, "workload.computation_ms"), "ms"),
        "trace.overhead_pct": (common.overhead_pct(log, traced_log, notes),
                               "%"),
    }
    notes.append(f"server-side deltas over the traced half: {requests} "
                 f"requests, client mean {client_mean:.3f} ms vs server "
                 f"serve.request_ms mean {request_ms:.3f} ms")
    notes.append("unmeasured on serve-mixed: algorithms.*, graphs.*, "
                 "workloads.self_ms (they run inside the server process, "
                 "out of reach of the benchmark's spans until the "
                 "program traces them itself); dist.*, dgps.* (not "
                 "run); reported as 0")
    return metrics
