#!/usr/bin/env python3
"""Record the digests of the library's answers on the benchmark's pools.

    python3 perfbench/golden.py

Run once at the commit whose answers are the reference; the workloads
then count any different answer on a pooled input as a failed op.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    golden = workloads.compute_golden()
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(v) for v in golden.values())} digests to {workloads.GOLDEN_PATH.name}")
