"""Seeded input generators and independent oracles.

Nothing here imports the library: inputs are plain data (letter strings,
slice-event tuples, rational tuples, text files), and the oracles
re-derive expected answers from definitions (the PL maps of x0 and x1,
the configuration-map formula, the forest-count recurrence) so that a
library defect cannot hide behind itself.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

LETTERS = "aAbB"
INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}

# The two defining relators of F, [x0 x1^-1, x0^-1 x1 x0] and
# [x0 x1^-1, x0^-2 x1 x0^2], written as commutators u v u^-1 v^-1.
RELATORS = ("aBAbabAABa", "aBAAbaabAAABaa")


def digest(obj) -> str:
    return hashlib.blake2b(repr(obj).encode(), digest_size=12).hexdigest()


def word(r: random.Random, length: int) -> str:
    return "".join(r.choice(LETTERS) for _ in range(length))


def padded(r: random.Random, w: str, pairs: int = 3) -> str:
    """A word equal to ``w`` in F: one relator and some cancelling pairs
    inserted at random positions."""
    out = list(w)
    inserts = [r.choice(RELATORS)]
    inserts += [c + INVERSE[c] for c in (r.choice(LETTERS) for _ in range(pairs))]
    for piece in inserts:
        at = r.randint(0, len(out))
        out[at:at] = list(piece)
    return "".join(out)


def slice_events(r: random.Random, m: int, count: int) -> tuple[tuple[tuple[str, int], ...], int]:
    """Random valid slice events from ``m`` strands; returns (events, sinks)."""
    n = m
    events = []
    for _ in range(count):
        if n == 1 or r.random() < 0.5:
            events.append(("S", r.randint(1, n)))
            n += 1
        else:
            events.append(("M", r.randint(1, n - 1)))
            n -= 1
    return tuple(events), n


def events_to(r: random.Random, sinks: int, count: int) -> tuple[tuple[str, int], ...]:
    """Random (1, sinks) slice events: ``count`` random events, then
    splits or merges until exactly ``sinks`` strands remain."""
    events, n = slice_events(r, 1, count)
    events = list(events)
    while n < sinks:
        events.append(("S", r.randint(1, n)))
        n += 1
    while n > sinks:
        events.append(("M", r.randint(1, n - 1)))
        n -= 1
    return tuple(events)


def random_tree(r: random.Random, leaves: int) -> tuple[tuple[str, int], ...]:
    """Slice events of a random merge-free (1, leaves) diagram."""
    return tuple(("S", r.randint(1, n)) for n in range(1, leaves))


def right_comb(leaves: int) -> tuple[tuple[str, int], ...]:
    return tuple(("S", i) for i in range(1, leaves))


def flip_events(events) -> tuple[tuple[str, int], ...]:
    """Slice events of the reflected diagram."""
    return tuple(("M" if t == "S" else "S", i) for t, i in reversed(events))


def diagram_text(m: int, events) -> str:
    return f"diagram {m}\n" + "".join(f"{t} {i}\n" for t, i in events)


def forest_text(kinds, weights) -> str:
    lines = [f"forest {len(kinds)}"]
    for k, w in zip(kinds, weights):
        lines.append(k if w is None else f"{k} {w}")
    return "\n".join(lines) + "\n"


def config_text(t) -> str:
    return " ".join(str(x) for x in t) + "\n"


def rational(r: random.Random) -> Fraction:
    """A random rational strictly between 0 and 1."""
    den = r.choice((2, 3, 4, 5, 8, 16, 32))
    return Fraction(r.randint(1, den - 1), den)


def forest_kinds(r: random.Random, n: int, carets: int | None = None) -> tuple[str, ...]:
    """A random elementary forest on ``n`` strands, optionally with an
    exact caret count (which must be reachable)."""
    while True:
        comps = []
        left = n
        while left:
            kinds = "ESM" if left >= 2 else "ES"
            k = r.choice(kinds)
            comps.append(k)
            left -= 2 if k == "M" else 1
        if carets is None or sum(c != "E" for c in comps) == carets:
            return tuple(comps)


def weights_for(r: random.Random, kinds) -> tuple:
    return tuple(None if k == "E" else rational(r) for k in kinds)


def cf_tuple(r: random.Random, n: int) -> tuple[Fraction, ...]:
    """A configuration by construction: nondecreasing, t[i+2] - t[i] >= 1."""
    t = [Fraction(r.randint(-8, 8), r.choice((1, 2, 4)))]
    prev = Fraction(2)
    for _ in range(n - 1):
        gap = Fraction(r.randint(0, 16), 8)
        if prev + gap < 1:
            gap = 1 - prev
        t.append(t[-1] + gap)
        prev = gap
    return tuple(t)


def df_point(r: random.Random, components: int) -> tuple[Fraction, ...]:
    """A duplicate-free image point from the gap grammar of the image."""
    out = [Fraction(1)]
    for _ in range(components - 1):
        if r.random() < 0.5:
            out.append(out[-1] + rational(r))
        out.append(out[-1] + 1)
    if r.random() < 0.5:
        out.append(out[-1] + rational(r))
    return tuple(out)


def with_duplicates(r: random.Random, t) -> tuple[Fraction, ...]:
    """Duplicate entries that sit a unit away from both neighbours."""
    out = list(t)
    for i in reversed(range(len(t))):
        left_ok = i == 0 or t[i] - t[i - 1] >= 1
        right_ok = i == len(t) - 1 or t[i + 1] - t[i] >= 1
        if left_ok and right_ok and r.random() < 0.5:
            out.insert(i, t[i])
    return tuple(out)


def config_map_oracle(kinds, weights) -> tuple[Fraction, ...]:
    """(L_1, R_1, ..., L_l, R_l) from the defining formula."""
    out = []
    run = Fraction(0)
    for idx, (k, w) in enumerate(zip(kinds, weights), start=1):
        left = idx + run
        if k == "S":
            run += w
        elif k == "M":
            run += 1 - w
        out += [left, idx + run]
    return tuple(out)


def canonical_cf(t) -> tuple[Fraction, ...]:
    out = [t[0]]
    for x in t[1:]:
        if x != out[-1]:
            out.append(x)
    return tuple(out)


def retract_oracle(t) -> tuple[Fraction, ...]:
    """Scale by 2, move the first entry to 1, cut every gap above 1 to 1."""
    out = [Fraction(1)]
    for a, b in zip(t, t[1:]):
        out.append(out[-1] + min(2 * (b - a), Fraction(1)))
    return tuple(out)


def retract_path_oracle(t, s: Fraction) -> tuple[Fraction, ...]:
    """The deformation at time s: in thirds of the clock, scaling up to
    factor 2, translation until the first entry is 1, then a straight
    slide onto the retracted tuple."""
    if s <= Fraction(1, 3):
        return tuple((1 + 3 * s) * x for x in t)
    shift = min(3 * s - 1, Fraction(1)) * (1 - 2 * t[0])
    moved = tuple(2 * x + shift for x in t)
    if s <= Fraction(2, 3):
        return moved
    u = 3 * s - 2
    return tuple((1 - u) * a + u * b for a, b in zip(moved, retract_oracle(t)))


def forest_count(n: int) -> int:
    """Elementary forests on n strands: c(n) = 2c(n-1) + c(n-2), c(0)=1, c(1)=2."""
    a, b = 1, 2
    for _ in range(n - 1):
        a, b = b, 2 * b + a
    return b if n >= 1 else a


def forests_by_carets(n: int, max_carets: int) -> tuple[int, ...]:
    """How many elementary forests on n strands have k carets, k <= max_carets."""
    rows = [[1] + [0] * max_carets]
    for left in range(1, n + 1):
        row = []
        for k in range(max_carets + 1):
            total = rows[left - 1][k]  # edge
            if k:
                total += rows[left - 1][k - 1]  # split caret
                if left >= 2:
                    total += rows[left - 2][k - 1]  # merge caret
            row.append(total)
        rows.append(row)
    return tuple(rows[n])


_F = Fraction
# Breakpoints of the standard generators x0 and x1 of F and their inverses.
_GEN_POINTS = {
    "a": ((_F(0), _F(0)), (_F(1, 4), _F(1, 2)), (_F(1, 2), _F(3, 4)), (_F(1), _F(1))),
    "b": ((_F(0), _F(0)), (_F(1, 2), _F(1, 2)), (_F(5, 8), _F(3, 4)),
          (_F(3, 4), _F(7, 8)), (_F(1), _F(1))),
}
_GEN_POINTS["A"] = tuple((y, x) for x, y in _GEN_POINTS["a"])
_GEN_POINTS["B"] = tuple((y, x) for x, y in _GEN_POINTS["b"])


def _eval_points(pts, x: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError(f"{x} outside [0, 1]")


def word_eval(w: str, x: Fraction) -> Fraction:
    """The word's PL map at x, letters applied left to right."""
    for c in w:
        x = _eval_points(_GEN_POINTS[c], x)
    return x
