"""Seeded serve-layer chaos harness: fault injection over live HTTP.

``python -m repro.serve.chaos --seed 7 --runs 3`` boots an *armed*
server (breakers + a default deadline + a :class:`ChaosInjector`),
replays the traffic harness's seeded schedule decorated with fault
directives, and reports what the resilience layer did about them:
MTTR (breaker open -> closed, ms), shed rate, stale-serve rate,
deadline 504s, breaker transitions, and SLO burn.

Fault taxonomy (one :class:`ChaosDirective` per request, carried in
the ``X-Repro-Chaos`` header):

========  ==================  =======================================
token     example             server behaviour when armed
========  ==================  =======================================
error     ``error``           raise :class:`InjectedServeFault` (500)
                              *inside* the breaker guard, before the
                              real work runs
delay     ``delay=25``        sleep that many ms inside the guard
drip      ``drip=4x10``       transport writes the response body in
                              4 chunks with 10ms gaps (slow consumer)
kill      ``kill=w0@1``       distributed algorithms run under that
                              :class:`~repro.dist.faults.FaultPlan`
                              spec (mid-request worker kill)
========  ==================  =======================================

Determinism is inherited from the traffic harness: the decorated
schedule is pure data derived from ``(seed, run, client)`` rng
streams, planned client-side *before* any request is sent, so the
same seed always injects the same faults at the same schedule slots
(``schedule_digest`` in the report is the witness). The header is
honored only when the service was constructed with ``chaos=`` — an
unarmed production server ignores it entirely.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any

from repro.serve.errors import ServeError
from repro.spec_literals import format_number

#: Request header carrying a rendered :class:`ChaosDirective`.
CHAOS_HEADER = "X-Repro-Chaos"

#: Breaker literal the chaos CLI arms its server with: sensitive
#: enough that a sustained 30% injected error rate trips it within
#: one window, with a sub-second cooldown so recovery (and therefore
#: MTTR) is observable inside a single run. CFG007 lints this.
CHAOS_BREAKER = ("window=10,threshold=0.3,min_requests=4,probes=2,"
                 "cooldown_s=0.5")

#: Ops an ``error`` directive targets by default, in *traffic* op
#: terms (read/write/algo -> query/mutate/algorithm serve ops).
DEFAULT_ERROR_OPS = ("algo",)


class InjectedServeFault(ServeError):
    """The fault a chaos ``error`` directive makes the service raise.

    Status 500, so :func:`~repro.serve.errors.error_status` classifies
    it as a server-side error and it feeds the op's breaker window —
    indistinguishable from an organic failure, which is the point.
    """

    status = 500

    def __init__(self, op: str):
        super().__init__(f"chaos: injected fault in {op!r}")
        self.op = op


@dataclass(frozen=True)
class ChaosDirective:
    """One request's worth of planned misbehaviour (pure data)."""

    error: bool = False
    delay_ms: float = 0.0
    #: ``(chunks, gap_ms)`` — transport-level slow-drip response.
    drip: tuple[int, float] | None = None
    #: :class:`~repro.dist.faults.FaultPlan` spec for distributed
    #: algorithm requests (e.g. ``"w0@1"``).
    kill: str | None = None

    def __post_init__(self):
        if self.delay_ms < 0:
            raise ValueError("delay_ms must be >= 0")
        if self.drip is not None:
            chunks, gap_ms = self.drip
            if chunks < 2 or gap_ms < 0:
                raise ValueError(
                    "drip needs >= 2 chunks and gap_ms >= 0")

    @classmethod
    def parse(cls, text: str) -> "ChaosDirective":
        """Parse ``"error;delay=25;drip=4x10;kill=w0@1"``.

        ``;``-separated tokens so ``kill`` values may contain the
        FaultPlan DSL's commas. Unknown or duplicate tokens are
        errors — a malformed header must fail loudly, not inject
        nothing.
        """
        fields: dict[str, Any] = {}

        def put(key: str, value: Any) -> None:
            if key in fields:
                raise ValueError(
                    f"duplicate chaos token {key!r} in {text!r}")
            fields[key] = value

        for token in text.split(";"):
            token = token.strip()
            if not token:
                continue
            name, sep, value = token.partition("=")
            name = name.strip()
            if name == "error" and not sep:
                put("error", True)
            elif name == "delay" and sep:
                put("delay_ms", float(value))
            elif name == "drip" and sep:
                chunks_text, sep2, gap_text = value.partition("x")
                if not sep2:
                    raise ValueError(
                        f"drip token {token!r} is not of the form "
                        f"drip=CHUNKSxGAP_MS")
                put("drip", (int(chunks_text), float(gap_text)))
            elif name == "kill" and sep:
                put("kill", value.strip())
            else:
                raise ValueError(
                    f"unknown chaos token {token!r} in {text!r}")
        return cls(**fields)

    def render(self) -> str:
        tokens = []
        if self.error:
            tokens.append("error")
        if self.delay_ms:
            tokens.append(f"delay={format_number(self.delay_ms)}")
        if self.drip is not None:
            chunks, gap_ms = self.drip
            tokens.append(f"drip={chunks}x{format_number(gap_ms)}")
        if self.kill is not None:
            tokens.append(f"kill={self.kill}")
        return ";".join(tokens)


#: Ambient per-request directive, bound by the transport beside the
#: trace id and deadline so the service's chaos hooks see it without
#: plumbing an argument through every call.
_DIRECTIVE: ContextVar[Any] = ContextVar("repro_chaos", default=None)


def current_directive() -> ChaosDirective | None:
    """The directive bound to this request, or None."""
    return _DIRECTIVE.get()


@contextmanager
def chaos_scope(directive: ChaosDirective):
    """Bind ``directive`` as the ambient chaos directive."""
    token = _DIRECTIVE.set(directive)
    try:
        yield directive
    finally:
        _DIRECTIVE.reset(token)


class ChaosInjector:
    """The service-side arm: honors the ambient directive, keeps tally.

    Constructed by the harness (or a test) and passed as
    ``GraphService(chaos=...)``; a service without one never looks at
    the header. ``sleeper`` is injectable so tests can run delay
    directives without wall-clock cost.
    """

    def __init__(self, *, sleeper=time.sleep):
        self.sleeper = sleeper
        self.injected_errors = 0
        self.injected_delays = 0
        self.injected_kills = 0
        self._lock = threading.Lock()

    def apply(self, op: str, sp: Any = None) -> None:
        """Run inside the breaker guard: delay, then maybe raise."""
        directive = current_directive()
        if directive is None:
            return
        if directive.delay_ms > 0:
            with self._lock:
                self.injected_delays += 1
            if sp is not None:
                sp.set("chaos.delay_ms", directive.delay_ms)
            self.sleeper(directive.delay_ms / 1000.0)
        if directive.error:
            with self._lock:
                self.injected_errors += 1
            if sp is not None:
                sp.set("chaos.error", True)
            raise InjectedServeFault(op)

    def kill_plan(self) -> Any:
        """FaultPlan for a distributed run, when the directive has one."""
        directive = current_directive()
        if directive is None or directive.kill is None:
            return None
        from repro.dist.faults import FaultPlan

        with self._lock:
            self.injected_kills += 1
        return FaultPlan.parse(directive.kill)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "injected_errors": self.injected_errors,
                "injected_delays": self.injected_delays,
                "injected_kills": self.injected_kills,
            }


def plan_chaos(plan: list[list[dict[str, Any]]], *, seed: int,
               run: int, error_rate: float = 0.3,
               error_ops: tuple[str, ...] = DEFAULT_ERROR_OPS,
               delay_rate: float = 0.1, delay_ms: float = 25.0,
               drip_rate: float = 0.05, kill_rate: float = 0.15,
               ) -> list[list[dict[str, Any]]]:
    """Decorate a traffic schedule with chaos directives — pure data.

    Per-client rng streams salted by ``(seed, run)`` follow the
    traffic harness's determinism contract: client ``i``'s faults do
    not depend on other clients, and the same seed reproduces the
    same decorated plan. ``kill`` only attaches to distributed
    algorithm entries (pagerank), where a FaultPlan has meaning.
    """
    decorated: list[list[dict[str, Any]]] = []
    for client, schedule in enumerate(plan):
        rng = random.Random(seed * 100003 + run * 1009 + client)
        entries: list[dict[str, Any]] = []
        for entry in schedule:
            fields: dict[str, Any] = {}
            if entry["op"] in error_ops \
                    and rng.random() < error_rate:
                fields["error"] = True
            if rng.random() < delay_rate:
                fields["delay_ms"] = delay_ms
            if entry["op"] == "read" and rng.random() < drip_rate:
                fields["drip"] = (4, 2.0)
            if (entry["op"] == "algo"
                    and entry.get("name") == "pagerank"
                    and not fields.get("error")
                    and rng.random() < kill_rate):
                fields["kill"] = (f"w{rng.randrange(2)}"
                                  f"@{rng.randrange(1, 3)}")
            if fields:
                directive = ChaosDirective(**fields)
                entry = {**entry, "chaos": directive.render()}
            entries.append(entry)
        decorated.append(entries)
    return decorated


def schedule_digest(plans: list[list[list[dict[str, Any]]]]) -> str:
    """Stable digest of every run's decorated schedule — the witness
    that a seed reproduced the exact same fault plan."""
    blob = json.dumps(plans, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _planned_faults(plans: list[list[list[dict[str, Any]]]]
                    ) -> dict[str, int]:
    counts = {"error": 0, "delay": 0, "drip": 0, "kill": 0}
    for plan in plans:
        for schedule in plan:
            for entry in schedule:
                if "chaos" not in entry:
                    continue
                directive = ChaosDirective.parse(entry["chaos"])
                counts["error"] += int(directive.error)
                counts["delay"] += int(directive.delay_ms > 0)
                counts["drip"] += int(directive.drip is not None)
                counts["kill"] += int(directive.kill is not None)
    return counts


def run_serve_chaos(*, seed: int = 7, runs: int = 3,
                    clients: int = 6, requests: int = 20,
                    mix: Any = None, error_rate: float = 0.3,
                    delay_rate: float = 0.1, delay_ms: float = 25.0,
                    drip_rate: float = 0.05, kill_rate: float = 0.15,
                    deadline_ms: float = 2000.0,
                    breaker: str = CHAOS_BREAKER,
                    graph_id: str = "chaos") -> dict[str, Any]:
    """Boot an armed server per run, inject the planned faults over
    HTTP, and report how the resilience layer held up."""
    # Lazy: keep this module importable by the server (for header
    # parsing) without dragging in the HTTP stack or a cycle.
    from repro import obs
    from repro.serve.server import start_server
    from repro.serve.service import GraphService
    from repro.serve.traffic import TrafficMix, build_schedule

    mix = mix or TrafficMix(read=0.5, write=0.2, algo=0.3)
    base_plan = build_schedule(seed, clients, requests, mix)

    def decorate() -> list[list[list[dict[str, Any]]]]:
        return [plan_chaos(base_plan, seed=seed, run=run,
                           error_rate=error_rate,
                           delay_rate=delay_rate, delay_ms=delay_ms,
                           drip_rate=drip_rate, kill_rate=kill_rate)
                for run in range(runs)]

    plans = decorate()
    digest = schedule_digest(plans)

    obs.enable()
    run_reports: list[dict[str, Any]] = []
    for run, plan in enumerate(plans):
        injector = ChaosInjector()
        service = GraphService(breaker=breaker,
                               default_deadline_ms=deadline_ms,
                               chaos=injector)
        handle = start_server(service)
        try:
            run_reports.append(
                _drive_run(handle.base_url, plan, injector,
                           run=run, seed=seed, graph_id=graph_id))
        finally:
            handle.shutdown()

    totals = sum(r["total"] for r in run_reports)
    shed = sum(r["shed"] for r in run_reports)
    stale = sum(r["stale_serves"] for r in run_reports)
    mttrs = [m for r in run_reports for m in r["recovery_ms"]]
    report = {
        "schema": "repro.serve.chaos/v1",
        "seed": seed,
        "runs": runs,
        "clients": clients,
        "requests_per_client": requests,
        "schedule_digest": digest,
        "fault_profile": {
            "error_rate": error_rate,
            "delay_rate": delay_rate,
            "delay_ms": delay_ms,
            "drip_rate": drip_rate,
            "kill_rate": kill_rate,
            "deadline_ms": deadline_ms,
            "breaker": breaker,
        },
        "planned_faults": _planned_faults(plans),
        "total_requests": totals,
        "shed": shed,
        "shed_rate": round(shed / totals, 4) if totals else 0.0,
        "stale_serves": stale,
        "stale_serve_rate": (round(stale / totals, 4)
                             if totals else 0.0),
        "deadline_504": sum(r["deadline_504"] for r in run_reports),
        "breaker_transitions": sum(
            len(r["breaker_transitions"]) for r in run_reports),
        "mttr_ms": (round(sum(mttrs) / len(mttrs), 1)
                    if mttrs else None),
        "runs_detail": run_reports,
    }
    p95s = [r["latency_ms"]["p95"] for r in run_reports
            if r["latency_ms"]["p95"] > 0]
    report["checks"] = {
        # The acceptance contract: faults trip the breaker, queries
        # keep answering (fresh or stale-marked), tail latency stays
        # under the request deadline, and the plan is reproducible.
        "breaker_opened": (error_rate <= 0.0
                           or any(r["breaker_opened"]
                                  for r in run_reports)),
        "queries_answered": all(
            r["ok"] + r["stale_serves"] > 0 for r in run_reports),
        "p95_under_deadline_ms": (max(p95s) < deadline_ms
                                  if p95s else True),
        "deterministic": schedule_digest(decorate()) == digest,
    }
    return report


def _drive_run(url: str, plan: list[list[dict[str, Any]]],
               injector: ChaosInjector, *, run: int, seed: int,
               graph_id: str) -> dict[str, Any]:
    """Replay one decorated plan and tally what the breakers, the SLO
    monitor and the injector saw."""
    from repro.serve.traffic import (
        ServeClient,
        latency_percentiles,
        replay,
    )

    results, _ = replay(url, plan, seed=seed, graph_id=graph_id)
    admin = ServeClient(url)
    try:
        _, breakers = admin.request("GET", "/debug/breakers")
        _, slo = admin.request("GET", "/debug/slo")
    finally:
        admin.close()

    latencies = [r["latency_ms"] for r in results
                 if r["status"] == 200]
    transitions = breakers.get("transitions", [])
    return {
        "run": run,
        "total": len(results),
        "ok": sum(1 for r in results if r["status"] == 200
                  and not r["stale"]),
        "stale_serves": sum(1 for r in results if r["stale"]),
        "shed": sum(1 for r in results
                    if r["status"] in (429, 503)),
        "deadline_504": sum(1 for r in results
                            if r["status"] == 504),
        "errors_5xx": sum(1 for r in results
                          if r["status"] == 500),
        "latency_ms": latency_percentiles(latencies),
        "injected": injector.stats(),
        "breaker_opened": any(t["to"] == "open"
                              for t in transitions),
        "breaker_transitions": transitions,
        "recovery_ms": breakers.get("recovery_ms", []),
        "slo_burning": [row["spec"] for row in slo.get("slos", [])
                        if row.get("burning")],
    }


def render_report(report: dict[str, Any]) -> str:
    planned = report["planned_faults"]
    lines = [
        f"chaos seed={report['seed']} runs={report['runs']} "
        f"clients={report['clients']} "
        f"x {report['requests_per_client']} requests  "
        f"digest {report['schedule_digest']}",
        f"  planned faults: {planned['error']} errors, "
        f"{planned['delay']} delays, {planned['drip']} drips, "
        f"{planned['kill']} kills",
        f"  {report['total_requests']} requests: "
        f"shed {report['shed']} "
        f"({100 * report['shed_rate']:.1f}%), "
        f"stale-served {report['stale_serves']} "
        f"({100 * report['stale_serve_rate']:.1f}%), "
        f"504s {report['deadline_504']}",
        f"  breaker transitions {report['breaker_transitions']}, "
        f"MTTR "
        + (f"{report['mttr_ms']:.0f}ms"
           if report["mttr_ms"] is not None else "n/a (no reopen)"),
    ]
    for detail in report["runs_detail"]:
        lat = detail["latency_ms"]
        burning = (" slo-burning: "
                   + ",".join(detail["slo_burning"])
                   if detail["slo_burning"] else "")
        lines.append(
            f"  run {detail['run']}: ok {detail['ok']} stale "
            f"{detail['stale_serves']} shed {detail['shed']} "
            f"5xx {detail['errors_5xx']} 504 "
            f"{detail['deadline_504']}  p95 {lat['p95']:.1f}ms"
            f"{burning}")
    for name, passed in report["checks"].items():
        lines.append(f"  check {name}: {'ok' if passed else 'FAIL'}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.chaos",
        description="Inject seeded faults into the resident service "
                    "and report MTTR, shed/stale-serve rates, and "
                    "breaker transitions.")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--requests", type=int, default=20,
                        help="requests per client")
    parser.add_argument("--mix", default="read=0.5,write=0.2,algo=0.3")
    parser.add_argument("--error-rate", type=float, default=0.3)
    parser.add_argument("--delay-rate", type=float, default=0.1)
    parser.add_argument("--delay-ms", type=float, default=25.0)
    parser.add_argument("--drip-rate", type=float, default=0.05)
    parser.add_argument("--kill-rate", type=float, default=0.15)
    parser.add_argument("--deadline-ms", type=float, default=2000.0)
    parser.add_argument("--breaker", default=CHAOS_BREAKER,
                        metavar="SPEC")
    parser.add_argument("--json", action="store_true",
                        dest="as_json")
    args = parser.parse_args(argv)

    from repro.serve.resilience import BreakerConfig
    from repro.serve.traffic import TrafficMix

    try:
        mix = TrafficMix.parse(args.mix)
        BreakerConfig.parse(args.breaker)  # fail fast on bad literals
    except ValueError as exc:
        parser.error(str(exc))
    report = run_serve_chaos(
        seed=args.seed, runs=args.runs, clients=args.clients,
        requests=args.requests, mix=mix,
        error_rate=args.error_rate, delay_rate=args.delay_rate,
        delay_ms=args.delay_ms, drip_rate=args.drip_rate,
        kill_rate=args.kill_rate, deadline_ms=args.deadline_ms,
        breaker=args.breaker)
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
    return 0 if all(report["checks"].values()) else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    # ``python -m`` runs this file as ``__main__`` — a *second* copy
    # of the module whose ``_DIRECTIVE`` contextvar the server (which
    # imports the canonical ``repro.serve.chaos``) would never bind.
    # Delegate to the canonical module so there is one contextvar.
    from repro.serve.chaos import main as _main

    raise SystemExit(_main())
