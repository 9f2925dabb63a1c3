"""Parsers and emitters for the plain-text interchange formats.

Diagram files:            "diagram <m>" then lines "S <i>" / "M <i>";
                          m is at most ``cubes.CAP`` (100000).
Weighted forest files:    "forest <l>" then l lines "E" | "S <w>" | "M <w>";
                          the weight may be omitted and defaults to 1.
Generalized diagrams:     a diagram block followed by a forest block.
Configurations:           one line of whitespace-separated rationals.
Move files:               forest blocks, each optionally preceded by a
                          line "inv" to traverse the move backwards.
Ball edge lists:          lines "<a> -- <b>"; the first vertex named is
                          the root.

Rationals are written "p/q" or as integers; decimals are accepted on
input and parsed exactly, with a decimal exponent of magnitude at most
``sys.get_int_max_str_digits()`` (4300 by default).  Lines starting
with '#' and blank lines are ignored everywhere.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterator

from .cubes import CAP, BallGraph
from .diagrams import MERGE, SPLIT, SliceWord, StrandDiagram, from_slices
from .errors import FormatError
from .forests import (
    EDGE,
    ElementaryForest,
    GeneralizedStrandDiagram,
    WeightedElementaryForest,
)


#: The decimal exponent of a rational token, as ``Fraction`` reads it.
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def parse_rational(token: str) -> Fraction:
    # An exponent is bounded like a digit run: by the interpreter's limit
    # on integer string conversion, so "1e-10000000" cannot force a huge
    # power of ten.
    exp = _EXPONENT.search(token)
    if exp is not None:
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        digits = exp.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or "0") > limit:
            raise FormatError(f"exponent of {token[:40]!r} exceeds {limit}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"cannot read {token!r} as a rational") from exc


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"line {lineno}: {what} must be an integer, got {token!r}")


def parse_diagram(text: str) -> StrandDiagram:
    rows = list(_lines(text))
    return _diagram_from_rows(rows)


def _diagram_from_rows(rows: list[tuple[int, list[str]]]) -> StrandDiagram:
    if not rows:
        raise FormatError("empty diagram file")
    lineno, head = rows[0]
    if head[0] != "diagram" or len(head) != 2:
        raise FormatError(f"line {lineno}: expected 'diagram <m>'")
    m = _parse_int(head[1], "source count", lineno)
    if m > CAP:  # the diagram would hold one stub per source
        raise FormatError(f"line {lineno}: source count {m} exceeds {CAP}")
    events = []
    for lineno, parts in rows[1:]:
        if parts[0] not in (SPLIT, MERGE) or len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'S <i>' or 'M <i>'")
        events.append((parts[0], _parse_int(parts[1], "strand index", lineno)))
    return from_slices(SliceWord(m, tuple(events)))


def emit_diagram(d: StrandDiagram) -> str:
    w = d.to_slices()
    lines = [f"diagram {w.sources}"]
    lines += [f"{tag} {i}" for tag, i in w.events]
    return "\n".join(lines) + "\n"


def _forest_from_rows(rows: list[tuple[int, list[str]]]) -> WeightedElementaryForest:
    if not rows:
        raise FormatError("empty forest block")
    lineno, head = rows[0]
    if head[0] != "forest" or len(head) != 2:
        raise FormatError(f"line {lineno}: expected 'forest <count>'")
    count = _parse_int(head[1], "component count", lineno)
    if len(rows) - 1 != count:
        raise FormatError(
            f"line {lineno}: forest announces {count} components, found {len(rows) - 1}"
        )
    kinds = []
    weights = []
    for lineno, parts in rows[1:]:
        kind = parts[0]
        if kind == EDGE and len(parts) == 1:
            kinds.append(EDGE)
            weights.append(None)
        elif kind in (SPLIT, MERGE) and len(parts) <= 2:
            kinds.append(kind)
            weights.append(parse_rational(parts[1]) if len(parts) == 2 else Fraction(1))
        else:
            raise FormatError(f"line {lineno}: expected 'E', 'S <w>' or 'M <w>'")
    try:
        return WeightedElementaryForest(tuple(kinds), tuple(weights))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse_forest(text: str) -> WeightedElementaryForest:
    return _forest_from_rows(list(_lines(text)))


def emit_forest(f: WeightedElementaryForest) -> str:
    lines = [f"forest {len(f.kinds)}"]
    for kind, w in f.pairs():
        lines.append(kind if w is None else f"{kind} {w}")
    return "\n".join(lines) + "\n"


def parse_generalized(text: str) -> GeneralizedStrandDiagram:
    """A diagram block then a forest block; a bare diagram is taken as a
    vertex (all-edge forest)."""
    rows = list(_lines(text))
    cut = next((k for k, (_, parts) in enumerate(rows) if parts[0] == "forest"), None)
    if cut is None:
        base = _diagram_from_rows(rows)
        return GeneralizedStrandDiagram.vertex(base)
    base = _diagram_from_rows(rows[:cut])
    forest = _forest_from_rows(rows[cut:])
    try:
        return GeneralizedStrandDiagram(base, forest)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def emit_generalized(g: GeneralizedStrandDiagram) -> str:
    return emit_diagram(g.base) + emit_forest(g.forest)


def parse_word(text: str) -> str:
    """Whitespace-separated generator letters a, A, b, B."""
    letters = []
    for lineno, parts in _lines(text):
        for tok in parts:
            if tok not in ("a", "A", "b", "B"):
                raise FormatError(f"line {lineno}: unknown generator token {tok!r}")
            letters.append(tok)
    return "".join(letters)


def parse_config(text: str) -> tuple[Fraction, ...]:
    rows = list(_lines(text))
    if len(rows) != 1:
        raise FormatError(f"expected one configuration line, found {len(rows)}")
    _, parts = rows[0]
    return tuple(parse_rational(p) for p in parts)


def emit_config(t: tuple[Fraction, ...]) -> str:
    return " ".join(map(str, t)) + "\n"


def parse_moves(text: str) -> list[tuple[int, ElementaryForest]]:
    """Signed elementary forests for holonomy: forest blocks, each
    optionally preceded by a line "inv"."""
    rows = list(_lines(text))
    moves: list[tuple[int, ElementaryForest]] = []
    k = 0
    while k < len(rows):
        lineno, parts = rows[k]
        sign = 1
        if parts == ["inv"]:
            sign = -1
            k += 1
            if k >= len(rows):
                raise FormatError(f"line {lineno}: 'inv' with no forest block")
            lineno, parts = rows[k]
        if parts[0] != "forest":
            raise FormatError(f"line {lineno}: expected a forest block")
        count = _parse_int(parts[1], "component count", lineno) if len(parts) == 2 else 0
        block = rows[k: k + 1 + count]
        wf = _forest_from_rows(block)
        moves.append((sign, wf.forest))
        k += 1 + count
    if not moves:
        raise FormatError("no forest blocks found")
    return moves


def parse_ball(text: str) -> BallGraph:
    """A ball's edge list, as :func:`fstrands.render.ball_edge_text` writes it."""
    edges = []
    for lineno, parts in _lines(text):
        if len(parts) != 3 or parts[1] != "--":
            raise FormatError(f"line {lineno}: expected 'a -- b'")
        edges.append((parts[0], parts[2]))
    names = dict.fromkeys(v for edge in edges for v in edge)  # the root first
    return BallGraph(root=next(iter(names), ""), vertices=tuple(sorted(names)),
                     edges=tuple(edges))
