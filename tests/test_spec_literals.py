"""The shared spec-literal layer: tokenizer, number formatter, and the
``parse(render(x)) == x`` contract of every config DSL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.faults import (
    BarrierFault,
    CorruptionFault,
    FaultPlan,
    KillFault,
    SlowFault,
    _fault_slot,
)
from repro.obs.slo import KNOWN_OPS, SLOSpec
from repro.serve.chaos import CHAOS_BREAKER, ChaosDirective
from repro.serve.resilience import DEFAULT_BREAKER, BreakerConfig
from repro.serve.traffic import TrafficMix
from repro.spec_literals import format_number, parse_pairs

FIELDS = {"n": int, "x": float}


class TestParsePairs:
    def test_parses_and_converts(self):
        assert parse_pairs(" n=3 , x=0.5,, ", FIELDS, what="key") == \
            {"n": 3, "x": 0.5}

    @pytest.mark.parametrize("spec, message", [
        ("n=3,bare", "'bare'"),
        ("n=3,y=1", "unknown key 'y'"),
        ("n=3,n=4", "duplicate key 'n'"),
        ("x=lots", "'lots'"),
        ("n=1.5", "'1.5'"),
        ("", "key=value"),
        ("  ", "key=value"),
    ])
    def test_rejects_naming_the_token(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_pairs(spec, FIELDS, what="key")


class TestFormatNumber:
    @pytest.mark.parametrize("value, text", [
        (5.0, "5"), (500.0, "500"), (25.0, "25"), (0.5, "0.5"),
        (0.9999999, "0.9999999"), (0.123456789, "0.123456789"),
        (25.1234567, "25.1234567"), (1e-05, "1e-05"),
    ])
    def test_short_when_exact_else_repr(self, value, text):
        assert format_number(value) == text
        assert float(text) == value

    def test_canonical_literals_are_unchanged(self):
        for literal in (DEFAULT_BREAKER, CHAOS_BREAKER):
            assert BreakerConfig.parse(literal).render() == literal
        assert ChaosDirective(delay_ms=25.0, drip=(4, 2.0)).render() \
            == "delay=25;drip=4x2"
        assert TrafficMix().render() == "read=0.7,write=0.2,algo=0.1"

    def test_renders_keep_every_digit(self):
        slo = SLOSpec(kind="latency", op="query", target=0.9999999,
                      threshold_ms=250)
        assert slo.render() == "latency:query<250ms@0.9999999"
        assert "threshold=0.123456789" in \
            BreakerConfig(threshold=0.123456789).render()
        plan = FaultPlan().slow("w0", 2, delay_ms=25.1234567)
        assert plan.render() == "w0@2+25.1234567ms"
        assert repr(plan) == "FaultPlan(w0@2+25.1234567ms)"


def _floats(low, high, **kwargs):
    return st.floats(low, high, allow_nan=False, allow_infinity=False,
                     **kwargs)


@st.composite
def traffic_mixes(draw):
    read = draw(_floats(0.0, 1.0))
    write = draw(_floats(0.0, 1.0 - read))
    return TrafficMix(read=read, write=write,
                      algo=max(0.0, 1.0 - read - write))


@st.composite
def breaker_configs(draw):
    window = draw(st.integers(1, 1000))
    return BreakerConfig(
        window=window,
        threshold=draw(_floats(0.0, 1.0, exclude_min=True)),
        min_requests=draw(st.integers(1, window)),
        probes=draw(st.integers(1, 100)),
        cooldown_s=draw(_floats(0.0, 1e6, exclude_min=True)))


slo_specs = st.one_of(
    st.builds(SLOSpec, kind=st.just("latency"),
              op=st.sampled_from(KNOWN_OPS),
              target=_floats(0.0, 1.0, exclude_min=True),
              threshold_ms=_floats(0.0, 1e12, exclude_min=True)),
    st.builds(SLOSpec, kind=st.just("errors"),
              op=st.sampled_from(KNOWN_OPS),
              target=_floats(0.0, 1.0, exclude_min=True)))

chaos_directives = st.builds(
    ChaosDirective,
    error=st.booleans(),
    delay_ms=_floats(0.0, 1e6),
    drip=st.none() | st.tuples(st.integers(2, 16), _floats(0.0, 1e4)),
    kill=st.none() | st.from_regex(r"w[0-9]@[0-9]", fullmatch=True))

_workers = st.sampled_from(["w0", "w1", "w2"])
_steps = st.integers(0, 20)
_faults = st.one_of(
    st.builds(KillFault, _workers, _steps, st.integers(1, 5)),
    st.builds(SlowFault, _workers, _steps,
              _floats(0.0, 1e9, exclude_min=True)),
    st.builds(BarrierFault, st.sampled_from(["drop", "duplicate"]),
              _steps, st.integers(1, 5)),
    st.builds(CorruptionFault, _steps,
              st.sampled_from(["garble", "truncate"])))
fault_plans = st.builds(
    FaultPlan, st.lists(_faults, max_size=6, unique_by=_fault_slot))


@given(st.one_of(traffic_mixes(), breaker_configs(), slo_specs,
                 chaos_directives, fault_plans))
@settings(max_examples=300, deadline=None)
def test_every_spec_round_trips_through_render(spec):
    parsed = type(spec).parse(spec.render())
    if isinstance(spec, FaultPlan):
        assert parsed.faults == spec.faults
    else:
        assert parsed == spec
