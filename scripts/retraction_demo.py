#!/usr/bin/env python3
"""Trace the three-phase retraction of configurations onto the image set.

For each input tuple (or a couple of stock examples) the script samples
the deformation path, verifies every sample stays a configuration, and
shows the diagram reconstructed over the endpoint.

    python3 scripts/retraction_demo.py
    python3 scripts/retraction_demo.py --config "3 7" --samples 6
"""

import argparse
from fractions import Fraction

from fstrands.configspace import (
    canonicalize_cf,
    df_section,
    is_in_cf,
    is_in_df,
    require_cf,
    retract,
    retract_path,
)
from fstrands.errors import DomainError, FormatError
from fstrands.textio import emit_generalized, parse_config


def trace(entries: tuple[Fraction, ...], samples: int) -> None:
    print(f"configuration: {' '.join(map(str, entries))}")
    for k in range(samples + 1):
        s = Fraction(k, samples)
        point = retract_path(entries, s)
        assert is_in_cf(point)
        print(f"  s={str(s):>5}  ->  {' '.join(map(str, point))}")
    end = retract(entries)
    assert is_in_df(end)
    section = df_section(end)
    print(f"  image point {' '.join(map(str, canonicalize_cf(end)))} lifts to:")
    print("    " + emit_generalized(section).replace("\n", "\n    ").rstrip())
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="whitespace-separated rationals")
    ap.add_argument("--samples", type=int, default=6)
    args = ap.parse_args()
    if args.samples < 1:
        ap.error("--samples must be at least 1")

    examples = ("3 7", "1 1 2", "0 0 1 5/2 5/2 4") if args.config is None else (args.config,)
    for text in examples:
        try:
            entries = require_cf(parse_config(text))
        except (FormatError, DomainError) as exc:
            ap.error(f"--config: {exc}")
        trace(entries, args.samples)


if __name__ == "__main__":
    main()
