"""The repository's benchmark: three workloads driven from outside the
program, end-to-end metrics from untraced runs and per-layer metrics
from a traced run. ``python3 perfbench/run.py --help`` runs it."""
