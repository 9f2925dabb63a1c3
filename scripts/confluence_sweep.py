#!/usr/bin/env python3
"""Randomized-order reduction sweep: check that redex order never matters.

Generates seeded random diagrams, reduces each one several times with
independently shuffled redex orders, and confirms all canonical
encodings agree.  Each diagram's slice word is also cut at two seeded
points, and the three pieces, raw and then reduced, are stacked back with
``multiply``; both products must have the same canonical encoding, so
the reduction seeded at the seams is checked too.

    python3 scripts/confluence_sweep.py --trials 5000 --max-carets 40
"""

import argparse
import random
import time

from fstrands.diagrams import (
    MERGE,
    SPLIT,
    SliceWord,
    canonical_encoding,
    from_slices,
    multiply,
    reduce,
)


def random_word(r: random.Random, max_events: int, m_max: int) -> SliceWord:
    m = r.randint(1, m_max)
    count = m
    events = []
    for _ in range(r.randint(0, max_events)):
        if count == 1 or r.random() < 0.5:
            events.append((SPLIT, r.randint(1, count)))
            count += 1
        else:
            events.append((MERGE, r.randint(1, count - 1)))
            count -= 1
    return SliceWord(m, tuple(events))


def pieces(w: SliceWord, cuts: random.Random) -> list:
    """The diagrams of ``w`` cut at two seeded points, top to bottom."""
    i, j = sorted(cuts.randint(0, len(w)) for _ in range(2))
    out = []
    sources = w.sources
    for lo, hi in ((0, i), (i, j), (j, len(w))):
        piece = SliceWord(sources, w.events[lo:hi])
        out.append(from_slices(piece))
        sources = piece.sinks
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=5000)
    ap.add_argument("--orders", type=int, default=5)
    ap.add_argument("--max-carets", type=int, default=40)
    ap.add_argument("--seed", type=int, default=2026)
    args = ap.parse_args()
    if args.max_carets < 0:
        ap.error("--max-carets must be nonnegative")

    r = random.Random(args.seed)
    # a stream of its own, so the diagrams do not depend on the cuts
    cuts = random.Random(args.seed + 1)
    t0 = time.perf_counter()
    steps_total = 0
    for k in range(args.trials):
        w = random_word(r, args.max_carets, 6)
        d = from_slices(w)
        encodings = {
            canonical_encoding(reduce(d, rng=random.Random(r.randrange(2 ** 30))))
            for _ in range(args.orders)
        }
        encodings.add(canonical_encoding(reduce(d)))
        if len(encodings) != 1:
            raise SystemExit(f"confluence failed on trial {k}: {sorted(encodings)}")
        raw = pieces(w, cuts)
        for top, mid, bottom in (raw, [reduce(p) for p in raw]):
            product = canonical_encoding(multiply(multiply(top, mid), bottom))
            if product not in encodings:
                raise SystemExit(f"stacked pieces disagree on trial {k}: "
                                 f"{product} against {sorted(encodings)}")
        steps_total += (d.vertex_count - reduce(d).vertex_count) // 2
    dt = time.perf_counter() - t0
    print(f"{args.trials} diagrams x {args.orders} orders: all encodings agree")
    print(f"{steps_total} reduction steps in {dt:.2f}s")


if __name__ == "__main__":
    main()
