"""Seeded multi-client traffic harness for the resident service.

``python -m repro.serve.traffic --seed 7 --clients 8 --mix
read=0.7,write=0.2,algo=0.1`` boots a server (or targets ``--url``),
replays a *deterministic* request schedule from N concurrent clients,
and reports p50/p95/p99 latency, throughput, shed rate, and cache hit
rate. Cache figures are **deltas** between a ``/metrics`` snapshot
taken before and after the run — against a long-lived ``--url`` server
the absolute counters include every earlier run's traffic, which PR-7
mistakenly reported as this run's hit rate.

Each response's ``X-Repro-Trace`` id is recorded per request, and the
report closes with per-run SLO compliance (``--slo`` literals, or the
service defaults) over the run's own samples.

Determinism is the point: the schedule is pure data derived from
``(seed, clients, requests, mix)`` via per-client
``random.Random(seed * 1000003 + client_index)`` streams, so the same
seed always produces the same request sequence — a load test you can
bisect with. (Wall-clock interleaving across threads still varies;
the *work* does not.)

:class:`TrafficMix` doubles as the config format the
:mod:`repro.analysis` CFG rules validate: weights must be
non-negative, sum to 1, and name only known operation kinds.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from typing import Any
from urllib.parse import urlsplit

from repro.dist.resilience import RetryPolicy
from repro.obs.slo import evaluate_samples
from repro.obs.trace_context import TRACE_HEADER
from repro.serve.chaos import CHAOS_HEADER
from repro.spec_literals import format_number, parse_pairs

#: Client-side connection retries share the recovery layer's
#: RetryPolicy (exponential backoff + cap); the jitter fraction
#: desynchronizes concurrent clients, drawn from each client's seeded
#: rng so runs stay reproducible per seed.
DEFAULT_CLIENT_RETRY = RetryPolicy(
    max_attempts=3, backoff_base_ms=10.0, backoff_factor=2.0,
    backoff_cap_ms=200.0, jitter=0.2)

#: Operation kinds a mix may name, with their request shapes below.
MIX_OPS = ("read", "write", "algo")

#: Traffic op -> the serve request op SLO specs target.
SLO_OP_BY_TRAFFIC_OP = {
    "read": "query",
    "write": "mutate",
    "algo": "algorithm",
}

#: Read queries cycled over the product graph (all strict-valid).
READ_QUERIES = (
    "MATCH (c:Customer)-[:PLACED]->(o:Order) RETURN c, o",
    "MATCH (p:Product) RETURN p",
    "MATCH (o:Order)-[:CONTAINS]->(p:Product) RETURN o, p",
    "MATCH (o:Order)-[:PAID_BY]->(p:Payment) RETURN o, p",
)

#: Algorithms cycled by the algo op (aliases the server resolves).
ALGO_NAMES = ("pagerank", "components", "bfs")


@dataclass(frozen=True)
class TrafficMix:
    """Operation weights; must be non-negative and sum to 1."""

    read: float = 0.7
    write: float = 0.2
    algo: float = 0.1

    def __post_init__(self):
        for op in MIX_OPS:
            if getattr(self, op) < 0:
                raise ValueError(
                    f"mix weight {op}={getattr(self, op)} is negative")
        total = self.read + self.write + self.algo
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"mix weights must sum to 1, got {total:.6f} "
                f"(read={self.read}, write={self.write}, "
                f"algo={self.algo})")

    @classmethod
    def parse(cls, text: str) -> "TrafficMix":
        """Parse ``"read=0.7,write=0.2,algo=0.1"``; unknown or repeated
        op names, negative weights, and weights not summing to 1 are
        errors. Ops left out weigh 0."""
        weights = parse_pairs(text, dict.fromkeys(MIX_OPS, float),
                              what="traffic op")
        return cls(**{op: weights.get(op, 0.0) for op in MIX_OPS})

    def render(self) -> str:
        """The canonical literal this mix round-trips through."""
        return ",".join(f"{op}={format_number(getattr(self, op))}"
                        for op in MIX_OPS)

    def as_weights(self) -> list[float]:
        return [getattr(self, op) for op in MIX_OPS]


def build_schedule(seed: int, clients: int, requests: int,
                   mix: TrafficMix) -> list[list[dict[str, Any]]]:
    """The full request plan, one list per client, as plain data.

    Deterministic in its arguments: per-client RNG streams mean client
    ``i``'s schedule does not depend on how many other clients exist
    before it runs.
    """
    plan: list[list[dict[str, Any]]] = []
    weights = mix.as_weights()
    for client in range(clients):
        rng = random.Random(seed * 1000003 + client)
        entries: list[dict[str, Any]] = []
        for step in range(requests):
            op = rng.choices(MIX_OPS, weights=weights, k=1)[0]
            if op == "read":
                entries.append({
                    "op": "read",
                    "query": READ_QUERIES[
                        rng.randrange(len(READ_QUERIES))],
                })
            elif op == "write":
                entries.append({
                    "op": "write",
                    "vertex": f"customer:{rng.randrange(100)}",
                    "key": "last_seen",
                    "value": f"c{client}s{step}",
                })
            else:
                entries.append({
                    "op": "algo",
                    "name": ALGO_NAMES[rng.randrange(len(ALGO_NAMES))],
                })
        plan.append(entries)
    return plan


class ServeClient:
    """A minimal JSON client over one reusable HTTP connection.

    ``last_trace_id`` holds the ``X-Repro-Trace`` id the server echoed
    on the most recent response — the handle a caller needs to fetch
    its own trace from ``/debug/traces/{id}``.
    """

    def __init__(self, url: str, timeout: float = 30.0, *,
                 retry_policy: RetryPolicy | None = None,
                 rng: random.Random | None = None):
        parts = urlsplit(url)
        if parts.hostname is None:
            raise ValueError(f"bad server url {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        self.retry_policy = retry_policy or DEFAULT_CLIENT_RETRY
        #: Seeded stream for backoff jitter; None disables jitter.
        self.rng = rng
        self.last_trace_id: str | None = None
        self._conn: HTTPConnection | None = None

    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(self.host, self.port,
                                        timeout=self.timeout)
        return self._conn

    def request(self, method: str, path: str,
                payload: dict | None = None, *,
                headers: dict[str, str] | None = None,
                ) -> tuple[int, dict[str, Any]]:
        body = None
        send_headers = dict(headers or {})
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        policy = self.retry_policy
        response = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                conn = self._connection()
                conn.request(method, path, body=body,
                             headers=send_headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (OSError, HTTPException):
                # Connection-level failure (an HTTP error status is
                # never retried here): drop the possibly half-closed
                # connection and try a fresh one per the shared
                # RetryPolicy, jittered from this client's seeded rng.
                self.close()
                if attempt >= policy.max_attempts:
                    raise
                time.sleep(
                    policy.backoff_ms(attempt, self.rng) / 1000.0)
        assert response is not None
        self.last_trace_id = response.getheader(TRACE_HEADER)
        data = json.loads(raw) if raw else {}
        return response.status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _entry_request(graph_id: str,
                   entry: dict[str, Any]) -> tuple[str, str, dict]:
    if entry["op"] == "read":
        return ("POST", f"/graphs/{graph_id}/query",
                {"query": entry["query"]})
    if entry["op"] == "write":
        return ("POST", f"/graphs/{graph_id}/mutate",
                {"operations": [{"op": "set_property",
                                 "vertex": entry["vertex"],
                                 "key": entry["key"],
                                 "value": entry["value"]}]})
    payload: dict[str, Any] = {"seed": 0}
    if entry["name"] == "pagerank":
        # PageRank rides the distributed runtime, so a traffic run
        # exercises trace propagation down to per-shard supersteps.
        payload["distributed"] = True
        payload["shards"] = 2
    return ("POST",
            f"/graphs/{graph_id}/algorithms/{entry['name']}",
            payload)


def latency_percentiles(latencies: list[float]) -> dict[str, float]:
    """Exact nearest-rank p50/p95/p99 in ms over raw samples (the
    client has every observation, so no bucket interpolation is
    needed); all 0.0 without samples."""
    ordered = sorted(latencies)
    last = len(ordered) - 1
    return {f"p{q}": (round(ordered[round(q / 100.0 * last)], 3)
                      if ordered else 0.0)
            for q in (50, 95, 99)}


def replay(url: str, plan: list[list[dict[str, Any]]], *, seed: int,
           graph_id: str) -> tuple[list[dict[str, Any]], float]:
    """Host the product graph as ``graph_id`` on ``url`` (reusing it
    when already hosted), then replay ``plan`` with one keep-alive
    :class:`ServeClient` thread per schedule.

    An entry carrying ``"chaos"`` sends it as the ``X-Repro-Chaos``
    header. Returns one row per request — ``op``, ``status``,
    ``latency_ms``, ``cache``, ``stale`` and ``trace_id`` — in
    completion order, plus the wall time of the replay in seconds.
    """
    admin = ServeClient(url)
    try:
        status, _ = admin.request(
            "POST", "/graphs",
            {"graph_id": graph_id, "scenario": "product", "seed": seed})
    finally:
        admin.close()
    if status not in (201, 409):  # 409: already hosted — reuse
        raise RuntimeError(
            f"could not host graph {graph_id!r}: HTTP {status}")

    rows: list[dict[str, Any]] = []
    rows_lock = threading.Lock()

    def worker(index: int, schedule: list[dict[str, Any]]) -> None:
        client = ServeClient(
            url, rng=random.Random(seed * 2000003 + index))
        local: list[dict[str, Any]] = []
        try:
            for entry in schedule:
                method, path, payload = _entry_request(graph_id, entry)
                headers = ({CHAOS_HEADER: entry["chaos"]}
                           if "chaos" in entry else None)
                start = time.perf_counter()
                code, body = client.request(method, path, payload,
                                            headers=headers)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                local.append({"op": entry["op"], "status": code,
                              "latency_ms": elapsed_ms,
                              "cache": body.get("cache"),
                              "stale": bool(body.get("stale")),
                              "trace_id": client.last_trace_id})
        finally:
            client.close()
        with rows_lock:
            rows.extend(local)

    threads = [threading.Thread(target=worker, args=(i, schedule),
                                name=f"replay-{i}")
               for i, schedule in enumerate(plan)]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return rows, time.perf_counter() - wall_start


def run_traffic(url: str | None = None, *, seed: int = 7,
                clients: int = 8, requests: int = 25,
                mix: TrafficMix | None = None,
                graph_id: str = "traffic",
                slos: list[str] | None = None) -> dict[str, Any]:
    """Replay the seeded schedule against ``url`` (self-boot a server
    on an ephemeral port when None) and return the report dict."""
    mix = mix or TrafficMix()
    plan = build_schedule(seed, clients, requests, mix)
    if slos is None:
        from repro.serve.service import DEFAULT_SLOS

        slos = list(DEFAULT_SLOS)

    handle = None
    if url is None:
        from repro import obs
        from repro.serve.server import start_server

        obs.enable()
        handle = start_server()
        url = handle.base_url
    try:
        admin = ServeClient(url)
        try:
            # Snapshot counters *before* the run: against a long-lived
            # server the absolute values include pre-run traffic, so
            # the report works in deltas.
            _, metrics_before = admin.request("GET", "/metrics")
            results, wall_s = replay(url, plan, seed=seed,
                                     graph_id=graph_id)
            _, metrics_after = admin.request("GET", "/metrics")
        finally:
            admin.close()
        return _report(results, wall_s, metrics_before, metrics_after,
                       seed=seed, clients=clients, requests=requests,
                       mix=mix, slos=slos)
    finally:
        if handle is not None:
            handle.shutdown()


def _counter_delta(before: dict[str, Any], after: dict[str, Any],
                   name: str) -> int:
    """This run's contribution to one monotonic counter (clamped at 0
    in case the server restarted mid-run)."""
    b = before.get("counters", {}).get(name, 0)
    a = after.get("counters", {}).get(name, 0)
    return max(0, a - b)


def _report(results: list[dict[str, Any]], wall_s: float,
            metrics_before: dict[str, Any],
            metrics_after: dict[str, Any], *, seed: int, clients: int,
            requests: int, mix: TrafficMix,
            slos: list[str]) -> dict[str, Any]:
    latencies = [r["latency_ms"] for r in results
                 if r["status"] == 200]
    shed = sum(1 for r in results if r["status"] in (429, 503))
    errors = sum(1 for r in results
                 if r["status"] not in (200, 429, 503))
    hits = _counter_delta(metrics_before, metrics_after,
                          "serve.cache_hits")
    misses = _counter_delta(metrics_before, metrics_after,
                            "serve.cache_misses")
    by_op: dict[str, int] = {}
    for r in results:
        by_op[r["op"]] = by_op.get(r["op"], 0) + 1
    samples = [(SLO_OP_BY_TRAFFIC_OP[r["op"]], r["latency_ms"],
                r["status"] != 200) for r in results]
    total = len(results)
    return {
        "schema": "repro.serve.traffic/v2",
        "seed": seed,
        "clients": clients,
        "requests_per_client": requests,
        "mix": {op: getattr(mix, op) for op in MIX_OPS},
        "total_requests": total,
        "by_op": by_op,
        "ok": len(latencies),
        "shed": shed,
        "errors": errors,
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(total / wall_s, 2) if wall_s else 0.0,
        "latency_ms": latency_percentiles(latencies),
        "shed_rate": round(shed / total, 4) if total else 0.0,
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": (round(hits / (hits + misses), 4)
                         if hits + misses else 0.0),
        },
        "slo": evaluate_samples(slos, samples),
    }


def render_report(report: dict[str, Any]) -> str:
    lat = report["latency_ms"]
    mix = TrafficMix(**report["mix"]).render()
    lines = [
        f"traffic seed={report['seed']} clients={report['clients']} "
        f"x {report['requests_per_client']} requests  mix {mix}",
        f"  {report['total_requests']} requests in "
        f"{report['wall_s']:.2f}s  "
        f"({report['throughput_rps']:.1f} req/s)",
        f"  latency p50={lat['p50']:.1f}ms p95={lat['p95']:.1f}ms "
        f"p99={lat['p99']:.1f}ms",
        f"  shed {report['shed']}/{report['total_requests']} "
        f"({100 * report['shed_rate']:.1f}%), "
        f"errors {report['errors']}",
        f"  cache hit rate {100 * report['cache']['hit_rate']:.1f}% "
        f"({report['cache']['hits']} hits / "
        f"{report['cache']['misses']} misses, this run)",
    ]
    for row in report.get("slo", ()):
        verdict = "met" if row["met"] else "MISSED"
        lines.append(
            f"  slo {row['spec']}: {verdict}  compliance "
            f"{100 * row['compliance']:.2f}% over {row['events']} "
            f"requests ({row['bad']} bad)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.traffic",
        description="Replay a seeded request mix against the graph "
                    "service and report latency/shed/cache figures.")
    parser.add_argument("--url", default=None,
                        help="target server (default: boot one "
                             "in-process on an ephemeral port)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=25,
                        help="requests per client")
    parser.add_argument("--mix", default="read=0.7,write=0.2,algo=0.1")
    parser.add_argument("--graph-id", default="traffic")
    parser.add_argument("--slo", action="append", default=None,
                        metavar="SPEC",
                        help="SLO spec to grade the run against "
                             "(repeatable); default: the service "
                             "defaults")
    parser.add_argument("--json", action="store_true",
                        dest="as_json")
    args = parser.parse_args(argv)

    try:
        mix = TrafficMix.parse(args.mix)
        if args.slo is not None:
            from repro.obs.slo import parse_specs

            parse_specs(args.slo)  # fail fast on bad literals
    except ValueError as exc:
        parser.error(str(exc))
    report = run_traffic(args.url, seed=args.seed,
                         clients=args.clients,
                         requests=args.requests, mix=mix,
                         graph_id=args.graph_id, slos=args.slo)
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
