"""The shared pieces of the config-literal DSLs.

Several configs travel as one-line literals that a human types, a CLI
flag carries and the CFG analysis rules lint before anything runs:
traffic mixes (``read=0.7,write=0.2,algo=0.1``), breaker policies
(``window=20,threshold=0.5``), SLOs, fault plans and chaos directives.
Each keeps its own grammar, but two pieces are common:

* :func:`parse_pairs` — the ``key=value,key=value`` tokenizer behind
  :class:`~repro.serve.traffic.TrafficMix` and
  :class:`~repro.serve.resilience.BreakerConfig`;
* :func:`format_number` — the number formatter every ``render()``
  uses, so ``parse(render(x)) == x`` holds for every float.

Stdlib-only and import-free, so ``repro.dist``, ``repro.obs`` and
``repro.serve`` can all use it without a cycle.
"""

from __future__ import annotations

from typing import Callable, Mapping


def parse_pairs(spec: str, fields: Mapping[str, Callable[[str], float]],
                *, what: str) -> dict[str, float]:
    """Parse ``"key=value,key=value"`` into ``{key: number}``.

    ``fields`` maps every allowed key to its converter (``int`` or
    ``float``); ``what`` names a key in error messages (``"traffic
    op"``). Bare tokens, unknown keys, duplicate keys and values the
    converter rejects raise :class:`ValueError` naming the offending
    token; empty tokens (``"a=1,,b=2"``) are skipped.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"expected key=value pairs, got {spec!r}")
    values: dict[str, float] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        key, sep, raw = token.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not sep:
            raise ValueError(
                f"bad token {token!r}: expected key=value")
        if key not in fields:
            raise ValueError(
                f"unknown {what} {key!r}; known: {list(fields)}")
        if key in values:
            raise ValueError(f"duplicate {what} {key!r} in {spec!r}")
        convert = fields[key]
        try:
            values[key] = convert(raw)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ValueError(
                f"value {raw!r} for {what} {key!r} is not "
                f"{kind}") from None
    return values


def format_number(value: float) -> str:
    """The shortest faithful literal for ``value``.

    ``:g`` (``5``, ``0.5``, ``25``) when it parses back to exactly
    ``value``, else ``repr`` (``0.9999999``), which always does.
    """
    short = format(value, "g")
    return short if float(short) == value else repr(value)
