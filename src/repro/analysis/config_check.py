"""CFG rules: config literals and bench cases as pure checkers.

Every config already has a parser or validator at its point of use,
but those fire mid-run, after the expensive work started. Re-using
them here turns the same logic into a pre-flight check that reports
``file:line`` findings instead of raising from inside a coordinator,
a load test, an armed server or a bench sweep.

The spec DSLs share one table, :data:`SPEC_RULES`: a call suffix
(``"TrafficMix.parse"``), the rule id a failed parse reports, and the
parser, imported only when a literal is checked. The scanner lints
every ``X.parse("...")`` string literal whose call matches a suffix;
the public ``check_*`` functions run the same :func:`check_spec` on a
string with a default ``file`` label.

* **CFG001** — a :class:`~repro.dist.faults.FaultPlan` spec fails to
  parse;
* **CFG002** — a fault plan schedules two faults for the same
  worker/superstep slot (previously last-write-wins silent);
* **CFG003** — a bench case is malformed (callable takes required
  arguments, or params are not JSON-serializable for the artifact);
* **CFG004** — a bench case's ``baseline_case`` names an unregistered
  case;
* **CFG005** — a :class:`~repro.serve.traffic.TrafficMix` literal is
  invalid (unknown or repeated op, non-numeric or negative weight, or
  weights that do not sum to 1);
* **CFG006** — an :class:`~repro.obs.slo.SLOSpec` literal is invalid
  (bad grammar, unknown request op, non-positive latency threshold,
  or a target outside (0, 1]);
* **CFG007** — a :class:`~repro.serve.resilience.BreakerConfig`
  literal is invalid (unknown or repeated key, non-numeric value,
  out-of-range threshold or window).
"""

from __future__ import annotations

import inspect
import json
from importlib import import_module
from typing import TYPE_CHECKING

from repro.analysis.findings import AnalysisReport, Severity
from repro.analysis.registry import finding, register_rule
from repro.dist.faults import FaultPlan, duplicate_faults

if TYPE_CHECKING:
    from repro.obs.bench import BenchSuite

#: bumped whenever rule behavior changes; keys the scan-result cache.
RULE_VERSION = "2"

register_rule(
    "CFG001", "config", Severity.ERROR,
    "fault-plan spec string fails to parse")
register_rule(
    "CFG002", "config", Severity.ERROR,
    "fault plan schedules duplicate faults for the same "
    "worker/superstep slot")
register_rule(
    "CFG003", "config", Severity.ERROR,
    "bench case is malformed (non-nullary callable or "
    "non-JSON-serializable params)")
register_rule(
    "CFG004", "config", Severity.ERROR,
    "bench case baseline_case references an unregistered case")
register_rule(
    "CFG005", "config", Severity.ERROR,
    "traffic-mix spec is invalid (unknown op, negative weight, or "
    "weights not summing to 1)")
register_rule(
    "CFG006", "config", Severity.ERROR,
    "SLO spec is invalid (bad grammar, unknown op, non-positive "
    "threshold, or target outside (0, 1])")
register_rule(
    "CFG007", "config", Severity.ERROR,
    "breaker config is invalid (unknown key, non-numeric "
    "value, or out-of-range window/threshold/probes/cooldown)")


#: Every spec DSL whose literals get a CFG rule: call suffix -> (rule
#: id, module, class). The scanner lints each ``X.parse("...")``
#: string literal whose call ends in a suffix, and the ``check_*``
#: functions below are the same check under a default ``file``
#: label. The parser is imported only when a literal is checked, so
#: the analysis layer never drags the serving stack in unasked.
SPEC_RULES: dict[str, tuple[str, str, str]] = {
    "FaultPlan.parse": ("CFG001", "repro.dist.faults", "FaultPlan"),
    "TrafficMix.parse": ("CFG005", "repro.serve.traffic", "TrafficMix"),
    "SLOSpec.parse": ("CFG006", "repro.obs.slo", "SLOSpec"),
    "BreakerConfig.parse": ("CFG007", "repro.serve.resilience",
                            "BreakerConfig"),
}


def check_spec(suffix: str, spec: str, *, file: str,
               line: int = 0) -> AnalysisReport:
    """Parse ``spec`` with the parser registered for ``suffix`` and
    report a failure under its rule id.

    A fault plan's duplicate-slot error is CFG002 rather than CFG001,
    and a plan that parses still gets the
    :func:`check_fault_plan_object` pass.
    """
    rule_id, module, name = SPEC_RULES[suffix]
    report = AnalysisReport()
    report.note_target(file)
    try:
        parsed = getattr(import_module(module), name).parse(spec)
    except ValueError as error:
        if rule_id == "CFG001" and "duplicate" in str(error):
            rule_id = "CFG002"
        report.add(finding(rule_id, str(error), file=file, line=line))
        return report
    if isinstance(parsed, FaultPlan):
        report.extend(check_fault_plan_object(parsed, file=file,
                                              line=line))
    return report


def check_fault_plan(spec: str, *, file: str = "<fault-plan>",
                     line: int = 0) -> AnalysisReport:
    """Validate a fault-plan DSL string without arming anything."""
    return check_spec("FaultPlan.parse", spec, file=file, line=line)


def check_fault_plan_object(plan: FaultPlan, *,
                            file: str = "<fault-plan>",
                            line: int = 0) -> AnalysisReport:
    """Validate an already-built plan (builder API bypasses parse)."""
    report = AnalysisReport()
    for description in duplicate_faults(plan.faults):
        report.add(finding(
            "CFG002",
            f"duplicate fault: {description}; the duplicate would "
            f"re-fire on replay instead of being a no-op",
            file=file, line=line))
    return report


def check_traffic_mix(spec: str, *, file: str = "<traffic-mix>",
                      line: int = 0) -> AnalysisReport:
    """Validate a ``read=0.7,write=0.2,algo=0.1`` traffic-mix string
    without booting a server or generating load."""
    return check_spec("TrafficMix.parse", spec, file=file, line=line)


def check_slo_spec(spec: str, *, file: str = "<slo>",
                   line: int = 0) -> AnalysisReport:
    """Validate one ``latency:OP<Nms@T`` / ``errors:OP@T`` SLO literal
    without standing up a monitor."""
    return check_spec("SLOSpec.parse", spec, file=file, line=line)


def check_breaker_config(spec: str, *, file: str = "<breaker>",
                         line: int = 0) -> AnalysisReport:
    """Validate a ``window=20,threshold=0.5,...`` breaker literal
    without arming a breaker."""
    return check_spec("BreakerConfig.parse", spec, file=file,
                      line=line)


def check_bench_cases(suite: "BenchSuite") -> AnalysisReport:
    """Validate every registered case of a bench suite."""
    report = AnalysisReport()
    names = set(suite.names())
    for case in suite.cases():
        file, line = _case_location(case)
        report.note_target(f"bench:{case.name}")
        signature = None
        try:
            signature = inspect.signature(case.fn)
        except (TypeError, ValueError):
            pass
        if signature is not None:
            required = [
                p for p in signature.parameters.values()
                if p.default is inspect.Parameter.empty
                and p.kind in (p.POSITIONAL_ONLY,
                               p.POSITIONAL_OR_KEYWORD,
                               p.KEYWORD_ONLY)
            ]
            if required:
                report.add(finding(
                    "CFG003",
                    f"bench case {case.name!r}: fn takes required "
                    f"argument(s) "
                    f"{[p.name for p in required]}; cases must be "
                    f"nullary (close over inputs)",
                    file=file, line=line, symbol=case.name))
        try:
            json.dumps(case.params)
        except (TypeError, ValueError):
            report.add(finding(
                "CFG003",
                f"bench case {case.name!r}: params are not "
                f"JSON-serializable; the BENCH artifact embeds them",
                file=file, line=line, symbol=case.name))
        baseline = case.params.get("baseline_case")
        if baseline is not None and baseline not in names:
            report.add(finding(
                "CFG004",
                f"bench case {case.name!r}: baseline_case "
                f"{baseline!r} is not registered (known: "
                f"{sorted(names)})",
                file=file, line=line, symbol=case.name))
    return report


def _case_location(case) -> tuple[str, int]:
    try:
        file = inspect.getsourcefile(case.fn) or "<bench>"
        _, line = inspect.getsourcelines(case.fn)
        return file, line
    except (OSError, TypeError):
        return "<bench>", 0
