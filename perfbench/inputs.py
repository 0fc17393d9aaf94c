"""Inputs the workloads run on, made from the workload seed, and their
fingerprints.

The program receives only these generated inputs. Each input's digest
is pinned per seed in ``fingerprints.json``, so a change to
:mod:`repro.generators` or the product-graph generator that alters
their output stops the benchmark instead of silently changing what two
commits are compared on. ``python3 perfbench/pin_fingerprints.py``
rewrites the file; doing so is a change to the benchmark.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import time
from pathlib import Path
from typing import Any

from perfbench import common

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

#: Seeds whose input digests ``fingerprints.json`` pins.
PINNED_SEEDS = range(512)

#: The analytics and pregel-dist graph: 1024 vertices, ~6.7k edges.
RMAT_SCALE = 10
RMAT_EDGE_FACTOR = 8


class FingerprintMismatch(RuntimeError):
    """A generator's output differs from the digest pinned for a seed."""


def rmat(seed: int, scale: int = RMAT_SCALE):
    """The RMAT graph of the analytics and pregel-dist workloads (a
    smaller ``scale`` gives a graph to warm up on)."""
    from repro.generators import RMATSpec, rmat_graph

    return rmat_graph(RMATSpec(scale=scale,
                               edge_factor=RMAT_EDGE_FACTOR), seed)


def timed_rmat(seed: int) -> tuple[Any, list[float], str]:
    """Generate the RMAT input ``SETUP_REPEATS`` times, timing each
    (their median is ``setup_s``), then check its fingerprint. Returns
    the graph, the set-up times and a line describing the input."""
    setup = []
    for _ in range(common.SETUP_REPEATS):
        start = time.perf_counter()
        graph = rmat(seed)
        setup.append(time.perf_counter() - start)
    fingerprint = check("rmat", seed, rmat_digest(graph))
    return graph, setup, (f"input: rmat seed {seed} "
                          f"({graph.num_vertices()} V / "
                          f"{graph.num_edges()} E), fingerprint "
                          f"{fingerprint}")


def _plain(value: Any) -> Any:
    if isinstance(value, (dt.date, dt.datetime)):
        return value.isoformat()
    return value


def product_payload(seed: int) -> dict[str, Any]:
    """The product graph as the explicit ``POST /graphs`` payload."""
    from repro.workloads import generate_product_graph

    graph = generate_product_graph(seed=seed)
    vertices = [{"id": v, "label": graph.vertex_label(v),
                 "properties": {k: _plain(x) for k, x in
                                graph.vertex_properties(v).items()}}
                for v in graph.vertices()]
    edges = []
    for edge in graph.edges():
        edges.append({"u": edge.u, "v": edge.v, "weight": edge.weight,
                      "label": graph.edge_label(edge.edge_id),
                      "properties": {
                          k: _plain(x) for k, x in
                          graph.edge_properties(edge.edge_id).items()}})
    return {"vertices": vertices, "edges": edges, "directed": True}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def rmat_digest(graph) -> str:
    """Digest of the graph's edge list, in the graph's edge order."""
    lines = "".join(f"{e.u} {e.v}\n" for e in graph.edges())
    return _digest(f"{graph.num_vertices()}\n{lines}".encode())


def payload_digest(payload: dict[str, Any]) -> str:
    return _digest(json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode())


def pinned() -> dict[str, dict[str, str]]:
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))


def check(kind: str, seed: int, digest: str) -> str:
    """Compare ``digest`` with the pinned one for ``(kind, seed)``.

    Returns ``"pinned"`` on a match and ``"unpinned"`` for a seed
    outside the pinned range; raises :class:`FingerprintMismatch`
    otherwise.
    """
    expected = pinned()[kind].get(str(seed))
    if expected is None:
        return "unpinned"
    if expected != digest:
        raise FingerprintMismatch(
            f"{kind} input for seed {seed} has digest {digest}, "
            f"pinned {expected}: the generator's output changed")
    return "pinned"
