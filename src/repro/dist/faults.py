"""Fault injection for the distributed runtime.

Scalability work that never kills a worker is wishful thinking — the
paper's own challenge list (§6.1) and the benchmarking literature both
insist failure behaviour is part of the workload. A :class:`FaultPlan`
is a tiny declarative DSL for chaos, covering the fault classes real
deployments see:

* **kill** — take a worker down as it enters a superstep
  (``w1@3``); the original one-shot fault.
* **flaky** — a worker that fails N *consecutive* attempts at the
  same superstep before succeeding (``w1@3x2``), exercising repeated
  recovery of the same frontier.
* **drop / duplicate** — lose or double cross-shard messages at the
  routing barrier (``drop@3`` / ``dup@3``); the coordinator's
  delivery accounting detects the mismatch and raises
  :class:`MessageLoss` / :class:`MessageDuplication`.
* **slow** — inject a recorded (not slept) per-worker delay
  (``w1@3+25ms``) so straggler tooling has something to find.
* **corrupt** — garble or truncate a checkpoint right after it is
  written (``garble@3`` / ``truncate@3``); the checksum in
  :mod:`repro.dist.checkpoint` catches it on load and the recovery
  supervisor falls back to the previous checkpoint.

The coordinator consults the plan at each worker's superstep entry and
at the routing barrier; every fault fires a bounded number of times
(once, or ``attempts`` times for flaky kills) so recovery can replay
to completion.

>>> plan = FaultPlan().kill("w1", at_superstep=3)
>>> plan = FaultPlan.parse("w1@3, w0@5")       # same thing, as a string
>>> plan = FaultPlan.parse("w1@2x3, drop@4, garble@5")   # chaos mix
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.spec_literals import format_number


class InjectedFault(ReproError):
    """Base class for *detected* injected faults.

    Everything raising this unwinds to the coordinator's superstep
    loop, which hands the error to the recovery supervisor. The
    ``fault_type`` tag keys the ``dist.faults.<type>`` counters.
    """

    fault_type = "fault"

    superstep: int


class WorkerKilled(InjectedFault):
    """An injected fault took a worker down mid-superstep."""

    def __init__(self, worker: str, superstep: int,
                 attempt: int = 1, attempts: int = 1):
        message = (f"worker {worker!r} killed by fault plan at "
                   f"superstep {superstep}")
        if attempts > 1:
            message += f" (flaky: attempt {attempt}/{attempts})"
        super().__init__(message)
        self.worker = worker
        self.superstep = superstep
        self.attempt = attempt
        self.attempts = attempts
        self.fault_type = "flaky" if attempts > 1 else "kill"


class MessageLoss(InjectedFault):
    """The routing barrier delivered fewer messages than were sent."""

    fault_type = "drop"

    def __init__(self, superstep: int, expected: int, delivered: int):
        super().__init__(
            f"barrier integrity check failed at superstep {superstep}: "
            f"{expected} messages routed but {delivered} delivered "
            f"({expected - delivered} lost)")
        self.superstep = superstep
        self.expected = expected
        self.delivered = delivered


class MessageDuplication(InjectedFault):
    """The routing barrier delivered more messages than were sent."""

    fault_type = "duplicate"

    def __init__(self, superstep: int, expected: int, delivered: int):
        super().__init__(
            f"barrier integrity check failed at superstep {superstep}: "
            f"{expected} messages routed but {delivered} delivered "
            f"({delivered - expected} duplicated)")
        self.superstep = superstep
        self.expected = expected
        self.delivered = delivered


@dataclass(frozen=True)
class KillFault:
    """Kill ``worker`` when it is about to execute ``superstep``.

    ``attempts > 1`` makes the worker *flaky*: it fails that many
    consecutive attempts at the superstep, then succeeds.
    """

    worker: str
    superstep: int
    attempts: int = 1

    def __str__(self) -> str:
        base = f"{self.worker}@{self.superstep}"
        return f"{base}x{self.attempts}" if self.attempts > 1 else base


@dataclass(frozen=True)
class SlowFault:
    """Record ``delay_ms`` of injected latency on one worker's superstep."""

    worker: str
    superstep: int
    delay_ms: float = 25.0

    def __str__(self) -> str:
        return (f"{self.worker}@{self.superstep}"
                f"+{format_number(self.delay_ms)}ms")


@dataclass(frozen=True)
class BarrierFault:
    """Drop or duplicate ``count`` routed messages at one barrier."""

    kind: str  # "drop" | "duplicate"
    superstep: int
    count: int = 1

    def __str__(self) -> str:
        word = "drop" if self.kind == "drop" else "dup"
        suffix = f"x{self.count}" if self.count != 1 else ""
        return f"{word}@{self.superstep}{suffix}"


@dataclass(frozen=True)
class CorruptionFault:
    """Corrupt the checkpoint labelled ``superstep`` right after it is
    saved (``garble``: perturb the payload under the checksum;
    ``truncate``: tear the serialized form in half)."""

    superstep: int
    mode: str = "garble"

    def __str__(self) -> str:
        return f"{self.mode}@{self.superstep}"


Fault = KillFault | SlowFault | BarrierFault | CorruptionFault


def _fault_slot(fault: Fault) -> tuple:
    """The scheduling slot a fault occupies; two faults sharing a slot
    are duplicates (kill and flaky compete for the same worker entry;
    garble and truncate damage the same checkpoint)."""
    if isinstance(fault, KillFault):
        return ("kill", fault.worker, fault.superstep)
    if isinstance(fault, SlowFault):
        return ("slow", fault.worker, fault.superstep)
    if isinstance(fault, BarrierFault):
        return (fault.kind, fault.superstep)
    return ("corrupt", fault.superstep)


def duplicate_faults(faults: list[Fault]) -> list[str]:
    """Describe every fault occupying an already-used slot.

    Used by :meth:`FaultPlan.parse` (reject, instead of the historical
    silent last-write-wins) and by :mod:`repro.analysis.config_check`
    as a pure pre-flight checker.
    """
    seen: dict[tuple, Fault] = {}
    duplicates = []
    for fault in faults:
        slot = _fault_slot(fault)
        if slot in seen:
            duplicates.append(f"{fault} duplicates {seen[slot]}")
        else:
            seen[slot] = fault
    return duplicates

#: chunk prefixes the parser treats as non-worker fault words.
_BARRIER_WORDS = {"drop": "drop", "dup": "duplicate",
                  "duplicate": "duplicate"}
_CORRUPT_WORDS = {"corrupt": "garble", "garble": "garble",
                  "truncate": "truncate"}


def _parse_int(text: str, chunk: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"bad fault spec {chunk!r}: {what} {text!r} "
            f"is not an integer") from None


def _parse_float(text: str, chunk: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"bad fault spec {chunk!r}: {what} {text!r} "
            f"is not a number") from None


class FaultPlan:
    """An ordered set of injected faults, each firing a bounded number
    of times (once, or ``attempts`` times for flaky kills)."""

    def __init__(self, faults: list[Fault] | None = None):
        self._faults: list[Fault] = list(faults or [])
        #: fault index -> number of times it has fired
        self._fire_counts: dict[int, int] = {}

    # -- builders (all chainable) ----------------------------------------

    def _add(self, fault: Fault) -> "FaultPlan":
        if fault.superstep < 0:
            raise ValueError("at_superstep must be >= 0")
        self._faults.append(fault)
        return self

    def kill(self, worker: str, at_superstep: int,
             attempts: int = 1) -> "FaultPlan":
        """Schedule a kill (``attempts > 1`` makes it flaky)."""
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        return self._add(KillFault(worker, at_superstep, attempts))

    def flaky(self, worker: str, at_superstep: int,
              attempts: int = 2) -> "FaultPlan":
        """A worker that fails ``attempts`` consecutive tries, then runs."""
        if attempts < 2:
            raise ValueError("a flaky fault needs attempts >= 2")
        return self.kill(worker, at_superstep, attempts=attempts)

    def slow(self, worker: str, at_superstep: int,
             delay_ms: float = 25.0) -> "FaultPlan":
        """Inject (record) ``delay_ms`` of latency on one superstep."""
        if delay_ms <= 0:
            raise ValueError("delay_ms must be > 0")
        return self._add(SlowFault(worker, at_superstep, delay_ms))

    def drop_messages(self, at_superstep: int,
                      count: int = 1) -> "FaultPlan":
        """Lose ``count`` routed messages at the superstep's barrier."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return self._add(BarrierFault("drop", at_superstep, count))

    def duplicate_messages(self, at_superstep: int,
                           count: int = 1) -> "FaultPlan":
        """Deliver ``count`` routed messages twice at the barrier."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return self._add(BarrierFault("duplicate", at_superstep, count))

    def corrupt_checkpoint(self, at_superstep: int,
                           mode: str = "garble") -> "FaultPlan":
        """Damage the checkpoint labelled ``at_superstep`` after save."""
        if mode not in ("garble", "truncate"):
            raise ValueError(
                f"unknown corruption mode {mode!r} "
                f"(expected 'garble' or 'truncate')")
        return self._add(CorruptionFault(at_superstep, mode))

    # -- parsing ----------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the chaos DSL, e.g. ``"w1@3x2, drop@4, w0@2+25ms,
        garble@5"``.

        Chunk grammar (comma/semicolon separated):

        * ``WORKER@STEP`` — kill
        * ``WORKER@STEPxN`` — flaky kill, N consecutive failures
        * ``WORKER@STEP+DELAY[ms]`` — slow worker
        * ``drop@STEP[xN]`` / ``dup@STEP[xN]`` — barrier message faults
        * ``garble@STEP`` / ``truncate@STEP`` / ``corrupt@STEP`` —
          checkpoint corruption (``corrupt`` is an alias for garble)
        """
        plan = cls()
        for chunk in spec.replace(";", ",").split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            target, _, rest = chunk.partition("@")
            target = target.strip()
            rest = rest.strip()
            if not target or not rest:
                raise ValueError(
                    f"bad fault spec {chunk!r}: expected worker@superstep")
            if target in _CORRUPT_WORDS:
                plan.corrupt_checkpoint(
                    _parse_int(rest, chunk, "superstep"),
                    mode=_CORRUPT_WORDS[target])
            elif target in _BARRIER_WORDS:
                step_text, _, count_text = rest.partition("x")
                superstep = _parse_int(step_text, chunk, "superstep")
                count = (_parse_int(count_text, chunk, "count")
                         if count_text else 1)
                plan._add(BarrierFault(_BARRIER_WORDS[target],
                                       superstep, count))
            elif "+" in rest:
                step_text, _, delay_text = rest.partition("+")
                delay_text = delay_text.strip()
                if delay_text.endswith("ms"):
                    delay_text = delay_text[:-2]
                plan.slow(target,
                          _parse_int(step_text, chunk, "superstep"),
                          delay_ms=_parse_float(delay_text, chunk,
                                                "delay"))
            else:
                step_text, _, attempts_text = rest.partition("x")
                superstep = _parse_int(step_text, chunk, "superstep")
                attempts = (_parse_int(attempts_text, chunk, "attempts")
                            if attempts_text else 1)
                plan.kill(target, superstep, attempts=attempts)
        duplicates = duplicate_faults(plan._faults)
        if duplicates:
            raise ValueError(
                f"bad fault spec {spec!r}: duplicate chunks for the "
                f"same worker/superstep ({'; '.join(duplicates)})")
        return plan

    # -- introspection -----------------------------------------------------

    @property
    def faults(self) -> list[Fault]:
        return list(self._faults)

    @property
    def fired(self) -> list[Fault]:
        """Faults that have fired at least once."""
        return [fault for index, fault in enumerate(self._faults)
                if self._fire_counts.get(index, 0) > 0]

    @property
    def exhausted(self) -> bool:
        """True when every fault has fired as often as it ever will."""
        for index, fault in enumerate(self._faults):
            budget = (fault.attempts if isinstance(fault, KillFault)
                      else 1)
            if self._fire_counts.get(index, 0) < budget:
                return False
        return True

    # -- coordinator hooks -------------------------------------------------

    def check(self, worker: str, superstep: int) -> None:
        """Raise :class:`WorkerKilled` if a pending kill matches.

        A plain kill fires once; a flaky kill fires ``attempts``
        consecutive times, so the post-recovery replays keep dying
        until the budget is spent — then the superstep goes through.
        """
        for index, fault in enumerate(self._faults):
            if (isinstance(fault, KillFault) and fault.worker == worker
                    and fault.superstep == superstep):
                count = self._fire_counts.get(index, 0)
                if count < fault.attempts:
                    self._fire_counts[index] = count + 1
                    raise WorkerKilled(worker, superstep,
                                       attempt=count + 1,
                                       attempts=fault.attempts)

    def slow_delay(self, worker: str, superstep: int) -> float:
        """Pending injected delay for this worker/superstep, in ms.

        Each slow fault fires once (replays run at full speed)."""
        total = 0.0
        for index, fault in enumerate(self._faults):
            if (isinstance(fault, SlowFault) and fault.worker == worker
                    and fault.superstep == superstep
                    and not self._fire_counts.get(index)):
                self._fire_counts[index] = 1
                total += fault.delay_ms
        return total

    def barrier_faults(self, superstep: int) -> list[BarrierFault]:
        """Pending drop/duplicate faults for this barrier (marked fired)."""
        pending: list[BarrierFault] = []
        for index, fault in enumerate(self._faults):
            if (isinstance(fault, BarrierFault)
                    and fault.superstep == superstep
                    and not self._fire_counts.get(index)):
                self._fire_counts[index] = 1
                pending.append(fault)
        return pending

    def corruption(self, superstep: int) -> CorruptionFault | None:
        """Pending corruption fault for this checkpoint (marked fired)."""
        for index, fault in enumerate(self._faults):
            if (isinstance(fault, CorruptionFault)
                    and fault.superstep == superstep
                    and not self._fire_counts.get(index)):
                self._fire_counts[index] = 1
                return fault
        return None

    def reset(self) -> None:
        """Re-arm every fault (for reusing a plan across runs)."""
        self._fire_counts.clear()

    def render(self) -> str:
        """The canonical spec this plan round-trips through
        (``parse(plan.render()).faults == plan.faults``)."""
        return ", ".join(str(f) for f in self._faults)

    def __repr__(self) -> str:
        return f"FaultPlan({self.render() or 'no faults'})"
