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
tolerances appear anywhere in this module.  Each function scales its
tuple by the lcm D of the denominators and works on the integer
numerators over D (the conditions above read xs[i+2] - xs[i] >= D, and
so on); ``Fraction`` appears only where values enter and leave.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

from .diagrams import EDGE, MERGE, SPLIT, SliceWord, from_slices, reduce
from .errors import DomainError
from .forests import GeneralizedStrandDiagram, _generalized

Rational = Union[Fraction, int, str]
Config = tuple[Fraction, ...]


def as_config(values: Iterable[Rational]) -> Config:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def _scaled(t: Sequence[Rational],
            strict: bool = True) -> Optional[tuple[Config, int, list[int]]]:
    """``t`` as fractions, the lcm ``den`` of their denominators, and the
    numerators ``xs`` of ``t`` over ``den``.

    ``t`` is a configuration iff ``xs`` decreases nowhere and
    xs[i+2] - xs[i] >= den.  Otherwise this raises ``DomainError``, or
    returns None when not ``strict``.
    """
    t = as_config(t)
    if not t:
        raise DomainError("configurations have at least one entry")
    den = lcm(*[x.denominator for x in t])
    xs = [x.numerator * (den // x.denominator) for x in t]
    if any(a > b for a, b in zip(xs, xs[1:])) or any(c - a < den for a, c in zip(xs, xs[2:])):
        if strict:
            raise DomainError(f"{' '.join(map(str, t))} is not a configuration")
        return None
    return t, den, xs


def is_in_cf(t: Sequence[Rational]) -> bool:
    """Membership test: nondecreasing, with t[i+2] - t[i] >= 1."""
    return _scaled(t, strict=False) is not None


def require_cf(t: Sequence[Rational]) -> Config:
    return _scaled(t)[0]


def _canonical(t: Sequence[Rational]) -> tuple[Config, int, list[int]]:
    """:func:`_scaled` of a configuration with its duplicates collapsed."""
    t, den, xs = _scaled(t)
    keep = [k for k in range(len(xs)) if not k or xs[k] != xs[k - 1]]
    return tuple(t[k] for k in keep), den, [xs[k] for k in keep]


def canonicalize_cf(t: Sequence[Rational]) -> Config:
    """Collapse duplicate entries; the spacing condition makes this legal."""
    return _canonical(t)[0]


def expand(t: Sequence[Rational], i: int) -> Config:
    """Duplicate entry i (1-based); the entry must be a unit away from
    its existing neighbours."""
    t, den, xs = _scaled(t)
    if not 1 <= i <= len(t):
        raise DomainError(f"index {i} out of range 1..{len(t)}")
    x = xs[i - 1]
    if i >= 2 and x - xs[i - 2] < den:
        raise DomainError(f"entry {i} is only {Fraction(x - xs[i - 2], den)} "
                          "from its left neighbour")
    if i <= len(t) - 1 and xs[i] - x < den:
        raise DomainError(f"entry {i} is only {Fraction(xs[i] - x, den)} "
                          "from its right neighbour")
    return t[: i - 1] + (t[i - 1],) * 2 + t[i:]


def config_pairs(g: GeneralizedStrandDiagram) -> list[tuple[str, Fraction, Fraction, Fraction]]:
    """Per-component (kind, weight, left, right) positions of a diagram.

    Works on any representative; the positions depend only on the
    weighted forest row.  The running sum is kept over the lcm of the
    weights' denominators.
    """
    pairs = g.forest.pairs()
    den = lcm(*[w.denominator for _k, w in pairs if w is not None])
    out = []
    run = 0
    for idx, (kind, w) in enumerate(pairs, start=1):
        left = idx * den + run
        if kind == SPLIT:
            run += w.numerator * (den // w.denominator)
        elif kind == MERGE:
            run += (w.denominator - w.numerator) * (den // w.denominator)
        out.append((kind, w, Fraction(left, den), Fraction(idx * den + run, den)))
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
    _, den, xs = _scaled(t)
    return _in_df(den, xs)


def _in_df(den: int, xs: list[int]) -> bool:
    """:func:`is_in_df` of the numerators over ``den`` of a configuration."""
    if xs[0] != den:
        return False
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    for i, gap in enumerate(gaps):
        if gap > den:
            return False
        if gap < den:
            if i > 0 and gaps[i - 1] != den:
                return False
            if i + 1 < len(gaps) and gaps[i + 1] != den:
                return False
    return True


def df_section(t: Sequence[Rational]) -> GeneralizedStrandDiagram:
    """A canonical diagram mapping onto the given image point.

    Duplicates are collapsed first.  Scanning gaps left to right, a gap
    below 1 pairs its endpoints as a split caret of that weight, a unit
    gap closes the current component, and the base is the right comb
    with one leaf per component.
    """
    t, den, xs = _canonical(t)
    if not _in_df(den, xs):
        raise DomainError(f"{' '.join(map(str, t))} is not in the image of the complex")
    weights: list[Optional[Fraction]] = []
    k = 0
    while k < len(xs):
        if k + 1 < len(xs) and xs[k + 1] - xs[k] < den:
            weights.append(Fraction(xs[k + 1] - xs[k], den))
            k += 2
        else:
            weights.append(None)
            k += 1
    kinds = [EDGE if w is None else SPLIT for w in weights]
    comb = SliceWord(1, tuple((SPLIT, i) for i in range(1, len(kinds))))
    # a comb has no merge, so ``reduce`` only flags it
    return _generalized(reduce(from_slices(comb)), kinds, weights)


def key_config(key) -> Config:
    """The configuration of the cell ``key``, inverted by :func:`df_section`:
    each component starts a unit after the previous one ended, and a split
    of weight w covers [x, x + w]."""
    out, x = [], Fraction(1)
    for c in key.components:
        out += [x] if c == EDGE else [x, x + c[1]]
        x = out[-1] + 1
    return tuple(out)


def retract(t: Sequence[Rational]) -> Config:
    """Scale by 2, translate the first entry to 1, then compress every gap
    above 1 down to 1, left to right.  Lands in the image set exactly.

    Not idempotent (``(0, 1/4)`` goes to ``(1, 3/2)``, which goes to
    ``(1, 2)``), but from an image point t the straight line to
    ``retract(t)`` stays in the image: the first entry stays 1, each gap
    g moves to min(2g, 1), and the unit flanks of short gaps stay 1."""
    _, den, xs = _scaled(t)
    return tuple(Fraction(c, den) for c in _compress(den, xs))


def _compress(den: int, xs: list[int]) -> list[int]:
    """The numerators over ``den`` of :func:`retract` of a configuration."""
    out = [den]
    for a, b in zip(xs, xs[1:]):
        out.append(out[-1] + min(2 * (b - a), den))
    return out


def retract_path(t: Sequence[Rational], s: Rational) -> Config:
    """Sample the three-phase deformation onto the image at time ``s``.

    Thirds of the clock: scaling up to factor 2, then translation until
    the first entry is 1, then a straight-line slide onto the compressed
    tuple (valid because the configuration conditions are convex).
    With s = p/q every phase is a numerator over q * den.
    """
    _, den, xs = _scaled(t)
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise DomainError(f"time {s} outside [0, 1]")
    p, q = s.numerator, s.denominator
    qd = q * den
    if 3 * p <= q:  # factor 1 + 3s
        return tuple(Fraction((q + 3 * p) * x, qd) for x in xs)
    lift = den - 2 * xs[0]  # the shift that moves the scaled first entry to 1
    if 3 * p <= 2 * q:  # scaled by 2, shifted by (3s - 1) * lift
        shift = (3 * p - q) * lift
        return tuple(Fraction(2 * q * x + shift, qd) for x in xs)
    u = 3 * p - 2 * q  # the slide has gone u / q of the way
    return tuple(Fraction((q - u) * (2 * x + lift) + u * c, qd)
                 for x, c in zip(xs, _compress(den, xs)))
