"""Shared fixtures for the benchmark harness.

Every ``bench_table*.py`` regenerates one table of the paper and asserts
the reproduction; run with ``pytest benchmarks/ --benchmark-only``.
Pass ``-s`` to also see the paper-vs-measured rows printed for each table.
"""

import pytest

from repro.synthesis import (
    build_literature_corpus,
    build_population,
    build_review_corpus,
)


@pytest.fixture(scope="session", autouse=True)
def observability():
    """Benchmark runs always carry metric dicts.

    Enables the :mod:`repro.obs` layer for the whole session, runs the
    ``python -m repro.obs.report`` smoke workload once up front (its
    span tree and metric summary are visible with ``-s``), exercises
    the sharded runtime end to end (tiny graph, k=2, one injected
    worker kill — checkpoint + recovery must reproduce the fault-free
    values), and yields the process registry; at session end the
    accumulated ``observability_dict`` -- the form embedded in
    ``BENCH_*.json`` -- is printed.
    """
    from repro import obs
    from repro.dist import report as dist_report
    from repro.obs import report as obs_report

    obs.reset()
    obs.enable()
    assert obs_report.main(["--scenario", "social"]) == 0
    dist_smoke = dist_report.smoke(k=2)
    assert dist_smoke["recovered"] and dist_smoke["recoveries"] == 1
    assert obs.get_registry().counter("dist.recoveries").value >= 1
    yield obs.get_registry()
    import json

    print()
    print("BENCH observability metrics:")
    print(json.dumps(obs.observability_dict([])["metrics"], indent=2,
                     default=repr))
    obs.disable()
    obs.reset()


@pytest.fixture(scope="session")
def bench_suite():
    """The full registered BenchSuite: the built-in default cases plus
    every pytest kernel re-registered through the ``suite.py`` adapter
    — the same set ``python -m repro.obs.bench run --extra
    benchmarks/suite.py`` measures."""
    import importlib.util
    from pathlib import Path

    from repro.obs.bench_cases import default_suite

    spec = importlib.util.spec_from_file_location(
        "bench_adapter", Path(__file__).parent / "suite.py")
    bench_adapter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_adapter)
    return bench_adapter.register(default_suite())


@pytest.fixture(scope="session")
def population():
    return build_population()


@pytest.fixture(scope="session")
def literature():
    return build_literature_corpus()


@pytest.fixture(scope="session")
def review_corpus():
    return build_review_corpus()


def report(expected, actual):
    """Print the side-by-side table (visible with -s) and return the
    comparison."""
    from repro.core import compare_tables
    from repro.core.report import render_comparison

    print()
    print(render_comparison(expected, actual))
    return compare_tables(expected, actual)
