"""Configuration tuples on the line and the strand-position map.

A configuration is a nondecreasing tuple of exact rationals in which no
three entries crowd into less than unit length (t[i+2] - t[i] >= 1).
Well-separated duplicate entries may be collapsed or duplicated freely;
the duplicate-free tuple is the canonical representative.

A generalized strand diagram maps to a configuration by reading off,
for each forest component, the left and right positions of its strand
bundle: component i spans [L_i, R_i] where

    L_i = i + sum of w_j over earlier splits + (1 - w_j) over earlier merges
    R_i = the same sums taken through component i.

The image is cut out by three gap conditions (first entry 1, gaps at
most 1, short gaps isolated between unit gaps), and a three-step
deformation (scale by 2, translate, compress long gaps left to right)
moves every configuration into that image, and on the image is
homotopic to the identity inside it.  All arithmetic is exact; no
tolerances appear anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .diagrams import SPLIT, SliceWord, from_slices
from .errors import DomainError
from .forests import (
    EDGE,
    MERGE,
    GeneralizedStrandDiagram,
    WeightedElementaryForest,
)

Rational = Union[Fraction, int, str]
Config = tuple[Fraction, ...]


def as_config(values: Iterable[Rational]) -> Config:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def is_in_cf(t: Sequence[Rational]) -> bool:
    """Membership test: nondecreasing, with t[i+2] - t[i] >= 1."""
    t = as_config(t)
    if not t:
        raise DomainError("configurations have at least one entry")
    if any(a > b for a, b in zip(t, t[1:])):
        return False
    return all(t[i + 2] - t[i] >= 1 for i in range(len(t) - 2))


def require_cf(t: Sequence[Rational]) -> Config:
    t = as_config(t)
    if not is_in_cf(t):
        raise DomainError(f"{tuple(map(str, t))} is not a configuration")
    return t


def canonicalize_cf(t: Sequence[Rational]) -> Config:
    """Collapse duplicate entries; the spacing condition makes this legal."""
    t = require_cf(t)
    out = [t[0]]
    for x in t[1:]:
        if x != out[-1]:
            out.append(x)
    return tuple(out)


def expand(t: Sequence[Rational], i: int) -> Config:
    """Duplicate entry i (1-based); the entry must be a unit away from
    its existing neighbours."""
    t = require_cf(t)
    if not 1 <= i <= len(t):
        raise DomainError(f"index {i} out of range 1..{len(t)}")
    x = t[i - 1]
    if i >= 2 and x - t[i - 2] < 1:
        raise DomainError(f"entry {i} is only {x - t[i - 2]} from its left neighbour")
    if i <= len(t) - 1 and t[i] - x < 1:
        raise DomainError(f"entry {i} is only {t[i] - x} from its right neighbour")
    return t[: i - 1] + (x, x) + t[i:]


def contract_slice(t: Sequence[Rational], s: Rational) -> Config:
    """Convex slide toward the evenly spaced tuple (1, 2, ..., n)."""
    t = require_cf(t)
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise DomainError(f"time {s} outside [0, 1]")
    return tuple((1 - s) * x + s * (k + 1) for k, x in enumerate(t))


def config_pairs(g: GeneralizedStrandDiagram) -> list[tuple[str, Fraction, Fraction, Fraction]]:
    """Per-component (kind, weight, left, right) positions of a diagram.

    Works on any representative; the positions depend only on the
    weighted forest row.
    """
    out = []
    run = Fraction(0)
    for idx, (kind, w) in enumerate(g.forest.pairs(), start=1):
        left = idx + run
        if kind == SPLIT:
            run += w
        elif kind == MERGE:
            run += 1 - w
        right = idx + run
        out.append((kind, w, left, right))
    return out


def config_map(g: GeneralizedStrandDiagram) -> Config:
    """The interleaved (L_1, R_1, ..., L_l, R_l) configuration of a diagram."""
    flat: list[Fraction] = []
    for _k, _w, left, right in config_pairs(g):
        flat.append(left)
        flat.append(right)
    return tuple(flat)


def is_in_df(t: Sequence[Rational]) -> bool:
    """Image membership: t[0] = 1, gaps at most 1, and any short gap is
    flanked by unit gaps wherever those flanks exist."""
    return _in_df(require_cf(t))


def _in_df(t: Config) -> bool:
    """:func:`is_in_df` of a tuple that ``require_cf`` already checked."""
    if t[0] != 1:
        return False
    gaps = [b - a for a, b in zip(t, t[1:])]
    for i, gap in enumerate(gaps):
        if gap > 1:
            return False
        if gap < 1:
            if i > 0 and gaps[i - 1] != 1:
                return False
            if i + 1 < len(gaps) and gaps[i + 1] != 1:
                return False
    return True


def df_section(t: Sequence[Rational]) -> GeneralizedStrandDiagram:
    """A canonical diagram mapping onto the given image point.

    Duplicates are collapsed first.  Scanning gaps left to right, a gap
    below 1 pairs its endpoints as a split caret of that weight, a unit
    gap closes the current component, and the base is the right comb
    with one leaf per component.
    """
    t = canonicalize_cf(t)
    if not _in_df(t):
        raise DomainError(f"{tuple(map(str, t))} is not in the image of the complex")
    comps: list[Union[str, tuple[str, Fraction]]] = []
    k = 0
    while k < len(t):
        if k + 1 < len(t) and t[k + 1] - t[k] < 1:
            comps.append((SPLIT, t[k + 1] - t[k]))
            k += 2
        else:
            comps.append(EDGE)
            k += 1
    comb = SliceWord(1, tuple((SPLIT, i) for i in range(1, len(comps))))
    return GeneralizedStrandDiagram(
        from_slices(comb), WeightedElementaryForest.from_pairs(comps)
    )


def retract(t: Sequence[Rational]) -> Config:
    """Scale by 2, translate the first entry to 1, then compress every gap
    above 1 down to 1, left to right.  Lands in the image set exactly.

    Not idempotent (``(0, 1/4)`` goes to ``(1, 3/2)``, which goes to
    ``(1, 2)``), but from an image point t the straight line to
    ``retract(t)`` stays in the image: the first entry stays 1, each gap
    g moves to min(2g, 1), and the unit flanks of short gaps stay 1."""
    return _compress(require_cf(t))


def _compress(t: Config) -> Config:
    out = [Fraction(1)]
    for a, b in zip(t, t[1:]):
        out.append(out[-1] + min(2 * (b - a), Fraction(1)))
    return tuple(out)


def retract_path(t: Sequence[Rational], s: Rational) -> Config:
    """Sample the three-phase deformation onto the image at time ``s``.

    Thirds of the clock: scaling up to factor 2, then translation until
    the first entry is 1, then a straight-line slide onto the compressed
    tuple (valid because the configuration conditions are convex).
    """
    t = require_cf(t)
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise DomainError(f"time {s} outside [0, 1]")
    if s <= Fraction(1, 3):
        factor = 1 + 3 * s
        return tuple(factor * x for x in t)
    scaled = tuple(2 * x for x in t)
    if s <= Fraction(2, 3):
        u = 3 * s - 1
        shift = u * (1 - scaled[0])
        return tuple(x + shift for x in scaled)
    translated = tuple(x + 1 - scaled[0] for x in scaled)
    target = _compress(t)
    u = 3 * s - 2
    return tuple((1 - u) * a + u * b for a, b in zip(translated, target))
