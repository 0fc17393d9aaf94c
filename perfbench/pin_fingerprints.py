"""Rewrite ``perfbench/fingerprints.json`` from the current generators.

Usage: ``python3 perfbench/pin_fingerprints.py``. Run it only when a
change to the inputs is intended; the new digests are then part of the
benchmark change, and results from before it are not comparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs  # noqa: E402


def main() -> int:
    table: dict[str, dict[str, str]] = {"rmat": {}, "product": {}}
    for seed in inputs.PINNED_SEEDS:
        table["rmat"][str(seed)] = inputs.rmat_digest(inputs.rmat(seed))
        table["product"][str(seed)] = inputs.payload_digest(
            inputs.product_payload(seed))
    inputs.FINGERPRINTS.write_text(json.dumps(table, indent=0) + "\n",
                                   encoding="utf-8")
    print(f"pinned {len(inputs.PINNED_SEEDS)} seeds in "
          f"{inputs.FINGERPRINTS.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
