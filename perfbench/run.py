"""Run one workload of the repository benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analytics --seed 1 \\
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn.

``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` runs the same workload with spans around the calls into
each layer and prints the per-layer metrics instead. The metric names
and units come from ``BENCHMARK.json``. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it describe the run.
A workload whose generated input no longer matches its pinned
fingerprint exits with status 3 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import analytics, inputs, pregel_dist, serve_mixed  # noqa: E402

WORKLOADS = {
    "serve-mixed": serve_mixed.run,
    "analytics": analytics.run,
    "pregel-dist": pregel_dist.run,
}

RESULTS = ROOT / "perfbench" / "results"


def source_id() -> str:
    """The commit when the checkout is a git repository, otherwise a
    digest of the program's source files."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_info(workload: str, seed: int, seconds: int,
             trace: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(), "source": source_id(),
    }


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process (so each reports its own peak
    memory), then one merged result line."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    info = run_info(args.workload, args.seed, args.seconds,
                    bool(args.trace))
    print("run " + json.dumps(info), flush=True)

    try:
        result = WORKLOADS[args.workload](args.seed, float(args.seconds),
                                          bool(args.trace))
    except inputs.FingerprintMismatch as exc:
        print(f"refusing to report: {exc}", file=sys.stderr)
        return 3

    metrics = dict(result.metrics)
    if args.trace:
        unknown = set(metrics) - set(declared)
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics {unknown}")
        for name, unit in declared.items():
            metrics.setdefault(name, (0.0, unit))
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json "
            f"{sorted(declared)}")
    for name, (_value, unit) in metrics.items():
        if unit != declared[name]:
            raise RuntimeError(f"{name} has unit {unit}, BENCHMARK.json "
                               f"says {declared[name]}")

    for note in result.notes:
        print(note)
    attempted, failed = result.attempted, result.failed
    print(f"failed_share {failed / attempted if attempted else 0.0:.6f} "
          f"({failed} of {attempted} operations)")
    if result.named:
        print("named " + json.dumps(
            {k: round(v, 4) for k, v in result.named.items()}))
    for failure in result.check_failures:
        print(f"CHECK FAILED: {failure}")
    if args.trace and result.recorder is not None:
        RESULTS.mkdir(parents=True, exist_ok=True)
        path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result.recorder.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<40} {value:>14.4f} {unit}")
    print(json.dumps({
        "correct": not result.check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
