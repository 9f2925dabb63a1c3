#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. A planted wrong answer is counted in the failed ratio, and so is an op
   that raises.
2. The same seed produces identical input digests.
3. A different seed produces different inputs.

Exits with status 1 if any check fails.
"""

from __future__ import annotations

import os
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from fstrands import textio  # noqa: E402

CYCLES = 3


def digests(name: str, seed: int) -> list[str]:
    w = workloads.WORKLOADS[name](seed)
    return [op.key() for _ in range(CYCLES) for op in workloads.cycle(w)]


def planted(ops, patch_name: str, replacement) -> run.Loop:
    """Run ``ops`` with ``textio.<patch_name>`` replaced."""
    original = getattr(textio, patch_name)
    setattr(textio, patch_name, replacement)
    try:
        return run.run_cycles([ops], None)
    finally:
        setattr(textio, patch_name, original)


def main() -> int:
    os.chdir(run.ROOT)
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    ops = workloads.cycle(workloads.Cli(7))
    clean = run.run_cycles([ops], None)
    check(clean.failed == 0, f"unplanted cli cycle: failed {clean.failed}/{len(ops)}")

    # Every successful request whose answer is a configuration line now
    # prints "0" instead.
    wrong = planted(ops, "emit_config", lambda t: "0\n")
    expected = sum(op.size in ("cmap", "canon-cf", "retract", "path-sample") for op in ops)
    check(expected > 0 and wrong.failed == wrong.wrong == expected,
          f"planted wrong answer: failed {wrong.failed}/{len(ops)}, "
          f"{expected} requests answer with a configuration")

    def boom(*_args):
        raise RecursionError("planted")

    raised = planted(ops, "parse_config", boom)
    check(raised.failed > 0 and raised.failed == raised.errors["RecursionError"],
          f"planted RecursionError: failed {raised.failed}/{len(ops)}, "
          f"raised {dict(raised.errors)}")

    for name in run.WORKLOAD_NAMES:
        first, again, other = digests(name, 11), digests(name, 11), digests(name, 12)
        check(first == again, f"{name}: seed 11 twice gives identical input digests")
        check(first != other, f"{name}: seeds 11 and 12 give different inputs")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
