"""Deterministic SVG and DOT renderings of the core objects.

Strand diagrams are drawn top to bottom (sources on top), one band per
slice event, each drawn as the elementary forest with that event's one
caret; a generalized diagram draws its weighted forest as one more band,
with caret labels showing the weights.  One row routine draws every
band.  Configurations become marked points on a number line.  Ball
graphs are emitted as DOT digraphs whose edges point from coarser to
finer vertices, or as plain "a -- b" edge lists.

Identical inputs and options always produce byte-identical output.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cubes import CAP, BallGraph
from .diagrams import _SINKS, _SOURCES, EDGE, SPLIT, StrandDiagram
from .errors import DomainError
from .forests import GeneralizedStrandDiagram, _one_caret


@dataclass(frozen=True)
class RenderSpec:
    scale: float = 40.0
    labels: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DomainError("scale must be a positive finite number")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _Canvas:
    def __init__(self, scale: float) -> None:
        self.scale = scale
        self.lines: list[str] = []
        self.dots: list[str] = []
        self.texts: list[str] = []
        self.maxx = 1.0
        self.maxy = 1.0

    def _xy(self, x: float, y: float) -> tuple[float, float]:
        px, py = x * self.scale, (y + 1) * self.scale
        self.maxx = max(self.maxx, px)
        self.maxy = max(self.maxy, py)
        return px, py

    def line(self, x0, y0, x1, y1) -> None:
        a = self._xy(x0, y0)
        b = self._xy(x1, y1)
        self.lines.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
            f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}"/>'
        )

    def dot(self, x, y, r=3.5) -> None:
        p = self._xy(x, y)
        self.dots.append(
            f'<circle cx="{_fmt(p[0])}" cy="{_fmt(p[1])}" r="{_fmt(r)}"/>'
        )

    def ring(self, x, y, r=6.0) -> None:
        p = self._xy(x, y)
        self.dots.append(
            f'<circle cx="{_fmt(p[0])}" cy="{_fmt(p[1])}" r="{_fmt(r)}" '
            f'fill="none" stroke="black"/>'
        )

    def text(self, x, y, s: str) -> None:
        p = self._xy(x, y)
        self.texts.append(
            f'<text x="{_fmt(p[0] + 5)}" y="{_fmt(p[1] - 3)}">{s}</text>'
        )

    def document(self) -> str:
        w = _fmt(self.maxx + self.scale)
        h = _fmt(self.maxy + self.scale)
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">',
            '<g stroke="black" stroke-width="1.5" fill="none">',
            *self.lines,
            "</g>",
            '<g fill="black">',
            *self.dots,
            "</g>",
            '<g font-family="monospace" font-size="11" fill="black">',
            *self.texts,
            "</g>",
            "</svg>",
        ]
        return "\n".join(parts) + "\n"


def _draw_row(canvas: _Canvas, t: int, kinds: tuple[str, ...], labels: dict[int, str]) -> None:
    """Draw the forest row ``kinds`` as the band from time row t to t + 1.

    Each component runs from its sources on top to its sinks below: an
    edge is one segment, a split two with a dot at the top, a merge two
    with a dot at the bottom.  ``labels`` maps a component's index to the
    text beside its caret's dot."""
    src = dst = 1
    for j, kind in enumerate(kinds):
        for a in range(src, src + _SOURCES[kind]):
            for b in range(dst, dst + _SINKS[kind]):
                canvas.line(a, t, b, t + 1)
        if kind != EDGE:
            x, y = (src, t) if kind == SPLIT else (dst, t + 1)
            canvas.dot(x, y)
            if j in labels:
                canvas.text(x, y, labels[j])
        src += _SOURCES[kind]
        dst += _SINKS[kind]


def _draw_word(canvas: _Canvas, d: StrandDiagram, labels: bool) -> int:
    """Draw the slice bands of a diagram; returns the final time row.

    A band draws one segment per strand on its wider side, and a diagram
    whose bands hold more than ``CAP`` segments is refused before any is
    drawn, since the output grows as events times strands."""
    word = d.to_slices()
    count = word.sources
    segments = 0 if word.events else count
    for tag, _ in word.events:
        segments += count + (tag == SPLIT)
        count += 1 if tag == SPLIT else -1
    if segments > CAP:
        raise DomainError(f"a drawing of {segments} strand segments exceeds {CAP}")
    if not word.events:
        _draw_row(canvas, 0, (EDGE,) * count, {})
        return 1
    count = word.sources
    for t, (tag, i) in enumerate(word.events):
        _draw_row(canvas, t, _one_caret(count, tag, i), {i - 1: f"{tag}{i}"} if labels else {})
        count += 1 if tag == SPLIT else -1
    return len(word.events)


def render_diagram_svg(d: StrandDiagram, spec: RenderSpec) -> str:
    canvas = _Canvas(spec.scale)
    _draw_word(canvas, d, spec.labels)
    return canvas.document()


def render_generalized_svg(g: GeneralizedStrandDiagram, spec: RenderSpec) -> str:
    canvas = _Canvas(spec.scale)
    t = _draw_word(canvas, g.base, spec.labels)
    labels = {j: str(w) for j, w in enumerate(g.forest.weights) if w is not None}
    _draw_row(canvas, t, g.forest.kinds, labels if spec.labels else {})
    return canvas.document()


def render_config_svg(t: tuple[Fraction, ...], spec: RenderSpec) -> str:
    """A number line with ticks every 10^k units, k the least that leaves at
    most 200 steps between its ends, so the output is bounded by the number
    of entries; spans up to 100 units get one tick per unit.  Entries stay
    within ``CAP``."""
    if any(abs(x) > CAP for x in t):
        raise DomainError(f"configuration entries above {CAP} in magnitude do not render")
    canvas = _Canvas(spec.scale)
    lo = min(t)
    hi = max(t)
    left = int(lo) - 1
    right = int(hi) + 2
    shift = 1 - left
    canvas.line(left + shift, 1, right + shift, 1)
    step = 1
    while right - left > 200 * step:
        step *= 10
    for k in range(-(-left // step) * step, right + 1, step):
        canvas.line(k + shift, 0.85, k + shift, 1.15)
        if spec.labels:
            canvas.text(k + shift - 0.15, 1.6, str(k))
    counts = Counter(t)
    for x in sorted(counts):
        canvas.dot(float(x) + shift, 1, r=4.5)
        if counts[x] > 1:
            canvas.ring(float(x) + shift, 1)
        if spec.labels:
            canvas.text(float(x) + shift, 0.55, str(x))
    return canvas.document()


def ball_edge_text(g: BallGraph) -> str:
    return "".join(f"{a} -- {b}\n" for a, b in g.edges)


def ball_dot(g: BallGraph) -> str:
    lines = ["digraph ball {"]
    for v in g.vertices:
        mark = ' [style=bold]' if v == g.root else ""
        lines.append(f'  "{v}"{mark};')
    for a, b in g.edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
