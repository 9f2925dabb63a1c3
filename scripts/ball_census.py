#!/usr/bin/env python3
"""Census of 1-skeleton balls around a vertex of the split-chain complex.

Prints vertex and edge counts per radius, both in the complex and in its
quotient by the left (1,1)-diagram action, and can dump the largest ball
as DOT for graphviz.

    python3 scripts/ball_census.py --radius 3
    python3 scripts/ball_census.py --radius 2 --dot ball.dot
"""

import argparse

from fstrands.cubes import ball, trivial_vertex
from fstrands.errors import DomainError
from fstrands.render import ball_dot


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=int, default=3)
    ap.add_argument("--cap", type=int, default=200_000)
    ap.add_argument("--dot", metavar="PATH", help="write the last ball as DOT")
    args = ap.parse_args()
    if args.radius < 0:
        ap.error("--radius must be nonnegative")

    v = trivial_vertex()
    print(f"{'r':>3} {'vertices':>10} {'edges':>8} {'quot.vertices':>14} {'quot.edges':>11}")
    for r in range(args.radius + 1):
        try:
            g = ball(v, r, cap=args.cap)
            q = ball(v, r, quotient=True, cap=args.cap)
        except DomainError as exc:
            ap.error(f"radius {r}: {exc}")
        print(f"{r:>3} {len(g.vertices):>10} {len(g.edges):>8} "
              f"{len(q.vertices):>14} {len(q.edges):>11}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(ball_dot(g))
        print(f"wrote {args.dot}")


if __name__ == "__main__":
    main()
