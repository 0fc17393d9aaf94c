"""The HTTP/JSON transport over :class:`~repro.serve.service.GraphService`.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` whose handler
parses JSON bodies, routes by method + path, and maps the named
service errors to their HTTP statuses. All policy (admission, caching,
validation) lives in the service; this module is deliberately a thin
adapter so the same behaviour is testable without a socket.

Endpoints::

    GET    /healthz                           liveness + queue depths
    GET    /metrics                           obs counters/gauges/histograms
    GET    /metrics?format=prom               Prometheus text exposition
    GET    /graphs                            hosted graphs
    POST   /graphs                            create (scenario or payload)
    GET    /graphs/{id}                       stats for one graph
    DELETE /graphs/{id}                       drop one graph
    POST   /graphs/{id}/query                 {"query": "MATCH ..."}
    POST   /graphs/{id}/mutate                {"operations": [...]}
    POST   /graphs/{id}/algorithms/{name}     {"seed": 0,
                                               "distributed": false}
    GET    /debug/traces                      retained trace digests
    GET    /debug/traces/{trace_id}           one trace's span tree
    GET    /debug/slowlog                     fingerprinted slow queries
    GET    /debug/slo                         burn-rate SLO evaluation
    GET    /debug/breakers                    circuit-breaker states

Every request runs under a trace id — minted at the edge, or adopted
from the ``X-Repro-Trace`` request header — and every response echoes
it back in the same header, so a caller can immediately fetch its own
trace from ``/debug/traces/{id}``. An ``X-Repro-Deadline-Ms`` request
header binds an execution budget the same way (see
:mod:`repro.obs.deadline`): overrunning it maps to a 504, and sheds
(breaker open, draining) carry a ``Retry-After`` response header.

Run one with :func:`start_server` (ephemeral port by default) or from
the CLI: ``python -m repro.serve --port 8080 --scenario product``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from contextlib import nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs

from repro.obs import render_prometheus
from repro.obs.deadline import (
    DEADLINE_HEADER,
    deadline_scope,
    parse_deadline_ms,
)
from repro.obs.trace_context import (
    TRACE_HEADER,
    accept_trace_id,
    trace_scope,
)
from repro.serve.errors import BadRequest, error_status
from repro.serve.service import GraphService

_GRAPH = re.compile(r"^/graphs/(?P<gid>[^/]+)$")
_QUERY = re.compile(r"^/graphs/(?P<gid>[^/]+)/query$")
_MUTATE = re.compile(r"^/graphs/(?P<gid>[^/]+)/mutate$")
_ALGO = re.compile(
    r"^/graphs/(?P<gid>[^/]+)/algorithms/(?P<name>[^/]+)$")
_TRACE = re.compile(r"^/debug/traces/(?P<tid>[^/]+)$")


class ServeHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request into the service, JSON in / JSON out."""

    protocol_version = "HTTP/1.1"
    server_version = "repro.serve/1"
    # Headers and body leave in separate writes; with Nagle on, the
    # body waits for the client's delayed ACK of the headers (~40 ms
    # on loopback). StreamRequestHandler.setup sets TCP_NODELAY.
    disable_nagle_algorithm = True

    @property
    def service(self) -> GraphService:
        return self.server.service  # type: ignore[attr-defined]

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # a traffic run would drown the terminal.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    # -- plumbing --------------------------------------------------------

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    def _send(self, status: int, payload: dict[str, Any] | str,
              trace_id: str | None = None, *,
              extra_headers: dict[str, str] | None = None,
              drip: tuple[int, float] | None = None) -> None:
        """JSON for dict payloads, text/plain for str (Prometheus).

        ``drip`` (chaos only) writes the body in N chunks with a gap
        between them, simulating a slow/tarpitted response the client
        must survive.
        """
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if trace_id is not None:
            self.send_header(TRACE_HEADER, trace_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if drip is not None and len(body) > 1:
            chunks, gap_ms = drip
            size = max(1, len(body) // max(1, chunks))
            for start in range(0, len(body), size):
                self.wfile.write(body[start:start + size])
                self.wfile.flush()
                # Chaos drip-feed: stalling this thread is the point.
                time.sleep(gap_ms / 1000.0)  # repro: ignore[RACE004]
            return
        self.wfile.write(body)

    def _chaos_directive(self):
        """The parsed ``X-Repro-Chaos`` directive, or ``None``.

        Honored only when the service was armed with a chaos injector
        — an unarmed production service ignores the header entirely.
        """
        if self.service.chaos is None:
            return None
        from repro.serve.chaos import CHAOS_HEADER, ChaosDirective

        raw = self.headers.get(CHAOS_HEADER)
        if raw is None or raw == "":
            return None
        try:
            return ChaosDirective.parse(raw)
        except ValueError as exc:
            raise BadRequest(str(exc)) from None

    def _dispatch(self, method: str) -> None:
        path, _, query_string = self.path.partition("?")
        params = parse_qs(query_string)
        trace_id = None
        extra_headers: dict[str, str] = {}
        directive = None
        try:
            trace_id = accept_trace_id(self.headers.get(TRACE_HEADER))
            try:
                budget_ms = parse_deadline_ms(
                    self.headers.get(DEADLINE_HEADER))
            except ValueError as exc:
                raise BadRequest(str(exc)) from None
            directive = self._chaos_directive()
            budget_ctx = (deadline_scope(budget_ms)
                          if budget_ms is not None else nullcontext())
            if directive is not None:
                from repro.serve.chaos import chaos_scope

                chaos_ctx: Any = chaos_scope(directive)
            else:
                chaos_ctx = nullcontext()
            with trace_scope(trace_id), budget_ctx, chaos_ctx:
                status, payload = self._route(method, path, params)
        except Exception as exc:  # noqa: BLE001 - the status mapping
            status = error_status(exc)
            payload = _error_payload(exc, status)
            retry_after = getattr(exc, "retry_after_s", None)
            if retry_after is not None:
                extra_headers["Retry-After"] = (
                    f"{max(0.0, float(retry_after)):.3f}")
        drip = directive.drip if directive is not None else None
        try:
            self._send(status, payload, trace_id,
                       extra_headers=extra_headers, drip=drip)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up; nothing to salvage

    # -- routing ---------------------------------------------------------

    def _route(
        self, method: str, path: str,
        params: dict[str, list[str]],
    ) -> tuple[int, dict[str, Any] | str]:
        service = self.service
        if method == "GET" and path == "/healthz":
            return 200, service.health()
        if method == "GET" and path == "/metrics":
            fmt = (params.get("format") or ["json"])[0]
            if fmt == "prom":
                return 200, render_prometheus()
            if fmt != "json":
                raise BadRequest(
                    f"unknown metrics format {fmt!r}; known: "
                    f"['json', 'prom']")
            return 200, service.metrics()
        if method == "GET" and path == "/debug/traces":
            limit = int((params.get("limit") or ["50"])[0])
            return 200, service.debug_traces(limit)
        match = _TRACE.match(path)
        if match and method == "GET":
            return 200, service.debug_trace(match["tid"])
        if method == "GET" and path == "/debug/slowlog":
            limit = int((params.get("limit") or ["20"])[0])
            return 200, service.debug_slowlog(limit)
        if method == "GET" and path == "/debug/slo":
            return 200, service.debug_slo()
        if method == "GET" and path == "/debug/breakers":
            return 200, service.debug_breakers()
        if method == "GET" and path == "/graphs":
            return 200, service.list_graphs()
        if method == "POST" and path == "/graphs":
            body = self._read_body()
            created = service.create_graph(
                graph_id=body.get("graph_id"),
                scenario=body.get("scenario"),
                seed=int(body.get("seed", 0)),
                vertices=body.get("vertices"),
                edges=body.get("edges"),
                directed=bool(body.get("directed", True)))
            return 201, created
        match = _GRAPH.match(path)
        if match:
            if method == "GET":
                return 200, service.graph_stats(match["gid"])
            if method == "DELETE":
                return 200, service.delete_graph(match["gid"])
        match = _QUERY.match(path)
        if match and method == "POST":
            body = self._read_body()
            if "query" not in body:
                raise BadRequest("query payload needs a 'query' field")
            result = service.query(
                match["gid"], body["query"],
                use_cache=bool(body.get("use_cache", True)))
            return 200, result
        match = _MUTATE.match(path)
        if match and method == "POST":
            body = self._read_body()
            result = service.mutate(match["gid"],
                                    body.get("operations"))
            return 200, result
        match = _ALGO.match(path)
        if match and method == "POST":
            body = self._read_body()
            result = service.algorithm(
                match["gid"], match["name"],
                seed=int(body.get("seed", 0)),
                distributed=bool(body.get("distributed", False)),
                shards=int(body.get("shards", 2)))
            return 200, result
        return 404, {"error": "NotFound", "status": 404,
                     "message": f"no route for {method} {path}"}

    # -- verbs -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")


def _error_payload(exc: BaseException,
                   status: int | None = None) -> dict[str, Any]:
    if status is None:
        status = error_status(exc)
    return {"error": type(exc).__name__, "message": str(exc),
            "status": status}


class ServerHandle:
    """A running server: address, service, and an orderly shutdown."""

    def __init__(self, httpd: ThreadingHTTPServer,
                 thread: threading.Thread, service: GraphService):
        self.httpd = httpd
        self.thread = thread
        self.service = service
        self.host, self.port = httpd.server_address[:2]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def shutdown(self, drain_s: float = 5.0) -> None:
        """Graceful drain, then stop.

        The service first stops *accepting*: new requests are shed
        with 503 + ``Retry-After`` (no admission slot consumed) while
        queued and in-flight handlers run to completion, polled up to
        the ``drain_s`` budget. Only then does the listener stop and
        the serve thread join — in-flight work is never stranded the
        way the old hard-join could.
        """
        self.service.begin_drain(retry_after_s=max(0.1, drain_s))
        drain_until = time.monotonic() + max(0.0, drain_s)
        while not self.service.drained():
            if time.monotonic() >= drain_until:
                break
            time.sleep(0.01)
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5.0)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


def start_server(service: GraphService | None = None, *,
                 host: str = "127.0.0.1",
                 port: int = 0) -> ServerHandle:
    """Boot a threaded server on ``host:port`` (0 = ephemeral) and
    serve in a daemon thread; returns the handle immediately."""
    service = service or GraphService()
    httpd = ThreadingHTTPServer((host, port), ServeHandler)
    httpd.daemon_threads = True
    httpd.service = service  # type: ignore[attr-defined]
    thread = threading.Thread(target=httpd.serve_forever,
                              name="repro-serve", daemon=True)
    thread.start()
    return ServerHandle(httpd, thread, service)


def main(argv: list[str] | None = None) -> int:
    """CLI: boot a server and block until interrupted."""
    import argparse

    from repro import obs

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Boot the resident graph service.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="0 picks an ephemeral port")
    parser.add_argument("--scenario", default=None,
                        help="pre-host one graph (e.g. 'product') "
                             "as graph id 'g1'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-in-flight", type=int, default=8)
    parser.add_argument("--queue-limit", type=int, default=32)
    parser.add_argument("--cache-capacity", type=int, default=256)
    parser.add_argument("--slo", action="append", default=None,
                        metavar="SPEC",
                        help="SLO spec (repeatable), e.g. "
                             "'latency:query<250ms@0.99'; replaces "
                             "the built-in defaults")
    parser.add_argument("--sample-every", type=int, default=1,
                        help="head-sample 1 in N ordinary traces "
                             "(errors and the slow tail always kept)")
    parser.add_argument("--no-obs", action="store_true",
                        help="serve without span/metric collection")
    parser.add_argument("--breaker", default=None, metavar="SPEC",
                        help="circuit-breaker config literal, e.g. "
                             "'window=20,threshold=0.5,min_requests=5,"
                             "probes=2,cooldown_s=5'")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="default execution budget minted per "
                             "request (overridable per request via "
                             "the X-Repro-Deadline-Ms header)")
    args = parser.parse_args(argv)

    if not args.no_obs:
        obs.enable()
    try:
        retention = obs.RetentionPolicy(sample_every=args.sample_every)
        service = GraphService(cache_capacity=args.cache_capacity,
                               max_in_flight=args.max_in_flight,
                               queue_limit=args.queue_limit,
                               slos=args.slo,
                               retention=retention,
                               breaker=args.breaker,
                               default_deadline_ms=args.deadline_ms)
    except ValueError as exc:
        parser.error(str(exc))
    if args.scenario:
        info = service.create_graph(scenario=args.scenario,
                                    seed=args.seed)
        print(f"hosted graph {info['id']}: {info['vertices']} "
              f"vertices, {info['edges']} edges "
              f"(scenario={args.scenario!r}, seed={args.seed})")
    handle = start_server(service, host=args.host, port=args.port)
    print(f"repro.serve listening on {handle.base_url}")
    try:
        handle.thread.join()
    except KeyboardInterrupt:
        print("shutting down")
        handle.shutdown()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
