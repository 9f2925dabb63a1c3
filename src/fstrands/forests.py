"""Elementary forests, weightings, and generalized strand diagrams.

An elementary forest is an ordered row of components, each an edge, a
split caret or a merge caret; multiplying a diagram by such a forest is
one "time step" in which every strand continues, splits, or merges with
its neighbour.  Weighting each caret by a rational in [0,1] records
partial progress of that split or merge; a reduced (1,n) diagram plus a
single weighted forest parameterizes a point of the cube complex built
from split chains.

Canonical form of a generalized diagram: the base is reduced, no caret
has weight 0 or 1, and no caret interacts with the base bottom (a merge
caret under a split pair and a split caret under a merge vertex are
rewritten away, flipping the caret and replacing its weight w by 1-w).
One walk over the forest finds every move, and one row stacked onto the
base makes them all.

Public constructors check all they are given; canonical forms, g-moves and
sections, built from checked values, skip the check (``_generalized``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .diagrams import (
    _FLIP,
    _SINKS,
    _SOURCES,
    EDGE,
    MERGE,
    SPLIT,
    StrandDiagram,
    multiply_row,
    reduce,
)
from .errors import CompositionError, DomainError

_KINDS = frozenset(_SOURCES)


@dataclass(frozen=True)
class ElementaryForest:
    """An ordered row of edge / split caret / merge caret components."""

    components: tuple[str, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not _KINDS.issuperset(comps):
            bad = next(c for c in comps if c not in _KINDS)
            raise DomainError(f"unknown forest component {bad!r}")

    @property
    def sources(self) -> int:
        return sum(_SOURCES[c] for c in self.components)

    @property
    def sinks(self) -> int:
        return sum(_SINKS[c] for c in self.components)

    def __str__(self) -> str:
        return " ".join(self.components)


def _one_caret(n: int, kind: str, pos: int) -> tuple[str, ...]:
    """The row on n strands with a single ``kind`` caret at strand ``pos``."""
    return (EDGE,) * (pos - 1) + (kind,) + (EDGE,) * (n + 1 - pos - _SOURCES[kind])


Weight = Optional[Fraction]


def _as_weight(w) -> Fraction:
    if type(w) is not Fraction:
        w = Fraction(w)
    if not 0 <= w <= 1:
        raise DomainError(f"caret weight {w} outside [0, 1]")
    return w


@dataclass(frozen=True)
class WeightedElementaryForest:
    """An elementary forest whose carets carry rational weights in [0,1].

    ``weights`` is aligned with ``kinds``; edges carry None.
    """

    kinds: tuple[str, ...]
    weights: tuple[Weight, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if len(self.kinds) != len(self.weights):
            raise DomainError("component and weight rows differ in length")
        ws = []
        for k, w in zip(self.kinds, self.weights):
            if k == EDGE:
                if w is not None:
                    raise DomainError("edges carry no weight")
                ws.append(None)
            elif k in (SPLIT, MERGE):
                if w is None:
                    raise DomainError(f"caret {k} is missing its weight")
                ws.append(_as_weight(w))
            else:
                raise DomainError(f"unknown forest component {k!r}")
        object.__setattr__(self, "weights", tuple(ws))

    @property
    def forest(self) -> ElementaryForest:
        return ElementaryForest(self.kinds)

    @property
    def sources(self) -> int:
        return sum(_SOURCES[c] for c in self.kinds)

    def pairs(self) -> list[tuple[str, Weight]]:
        return list(zip(self.kinds, self.weights))

    def __str__(self) -> str:
        bits = []
        for k, w in zip(self.kinds, self.weights):
            bits.append(k if w is None else f"{k}{w}")
        return " ".join(bits)


@dataclass(frozen=True)
class GeneralizedStrandDiagram:
    """A reduced (1,n) diagram followed by one weighted elementary forest."""

    base: StrandDiagram
    forest: WeightedElementaryForest

    def __post_init__(self) -> None:
        if self.base.m != 1:
            raise DomainError(f"base must have one source, got {self.base.m}")
        object.__setattr__(self, "base", reduce(self.base))
        if self.base.n != self.forest.sources:
            raise CompositionError(
                f"base has {self.base.n} sinks but forest has "
                f"{self.forest.sources} sources"
            )

    @classmethod
    def vertex(cls, base: StrandDiagram) -> "GeneralizedStrandDiagram":
        return cls(base, WeightedElementaryForest((EDGE,) * base.n, (None,) * base.n))

    def __repr__(self) -> str:
        return f"GeneralizedStrandDiagram({self.base!r}, [{self.forest}])"


def _generalized(base: StrandDiagram, kinds: Sequence[str],
                 weights: Sequence[Weight]) -> GeneralizedStrandDiagram:
    """``base``, flagged reduced with one source, under a row on its sinks
    whose carets weigh ``Fraction``s in [0, 1]: nothing is checked again."""
    forest = object.__new__(WeightedElementaryForest)
    object.__setattr__(forest, "kinds", tuple(kinds))
    object.__setattr__(forest, "weights", tuple(weights))
    g = object.__new__(GeneralizedStrandDiagram)
    object.__setattr__(g, "base", base)
    object.__setattr__(g, "forest", forest)
    return g


def canonicalize_generalized(g: GeneralizedStrandDiagram) -> GeneralizedStrandDiagram:
    """Rewrite to the unique representative of the class of ``g``.

    One walk over the forest, one move at every caret it applies to:
    weight-0 carets dissolve, weight-1 carets join the base, and carets
    on an opposite base-bottom vertex flip (w to 1-w) as that vertex
    leaves the base.  Every move is read off ``g.base``: a joined caret
    cancels at most the one base vertex above it, and the edges that
    cancellation exposes end at sinks under that caret; a flip cancels
    only the vertex under its own caret.  So no move changes the base
    bottom under another caret.  Carets sit on disjoint strands and
    reduced forms are unique, so all moves stack as one row.  No move
    makes a weight 0 or 1, and a flipped caret cannot flip again: that
    would take a merge feeding a split, or a split whose two legs feed
    one merge, and a reduced base has neither (a split with one leg into
    a merge is reduced and does occur).
    """
    base = g.base
    split_pairs = base.bottom_split_pairs()
    merge_fed = base.bottom_merge_positions()
    row, rest = [], []
    pos = 1  # the base sink under the current component
    for k, w in g.forest.pairs():
        if not w:  # an edge, or a weight-0 caret dissolving
            row += [EDGE] * _SOURCES[k]
            rest += [(EDGE, None)] * _SOURCES[k]
        elif w == 1:
            row.append(k)
            rest += [(EDGE, None)] * _SINKS[k]
        elif (k == MERGE and pos in split_pairs) or (k == SPLIT and pos in merge_fed):
            row.append(k)
            rest.append((_FLIP[k], 1 - w))
        else:
            row += [EDGE] * _SOURCES[k]
            rest.append((k, w))
        pos += _SOURCES[k]
    return _generalized(multiply_row(base, row), *zip(*rest))


def random_gmove(g: GeneralizedStrandDiagram,
                 seed: Union[int, random.Random]) -> GeneralizedStrandDiagram:
    """A different representative of the class of ``g``.

    Inverts one canonicalization step: inserts a weight-0 caret, pulls a
    base-bottom vertex out as a weight-1 caret, or flips a caret while
    pushing its opposite vertex into the base.  Every component offers
    at least one move, and a (1,n) base has n >= 1 strands, so some move
    always applies.
    """
    r = seed if isinstance(seed, random.Random) else random.Random(seed)
    base = g.base
    comps = g.forest.pairs()
    strand_comp = [None]  # strand_comp[s]: the component over base sink s
    for i, (k, _) in enumerate(comps):
        strand_comp += [i] * _SOURCES[k]

    moves: list[tuple] = []
    for i, (k, w) in enumerate(comps):
        if k == EDGE:
            moves.append(("edge_to_split0", i))
            if i + 1 < len(comps) and comps[i + 1][0] == EDGE:
                moves.append(("edges_to_merge0", i))
        else:
            moves.append(("flip", i))
    for p in base.bottom_split_pairs():
        i, j = strand_comp[p], strand_comp[p + 1]
        if i != j and comps[i][0] == EDGE and comps[j][0] == EDGE:
            moves.append(("pull_split", i))
    for p in base.bottom_merge_positions():
        i = strand_comp[p]
        if comps[i][0] == EDGE:
            moves.append(("pull_merge", i))

    tag, i = r.choice(moves)
    pos_i = strand_comp.index(i)
    if tag == "edge_to_split0":
        comps[i] = (SPLIT, Fraction(0))
    elif tag == "edges_to_merge0":
        comps[i:i + 2] = [(MERGE, Fraction(0))]
    elif tag == "flip":
        k, w = comps[i]
        base = multiply_row(base, _one_caret(base.n, k, pos_i))
        comps[i] = (_FLIP[k], 1 - w)
    elif tag == "pull_split":
        base = multiply_row(base, _one_caret(base.n, MERGE, pos_i))
        comps[i:i + 2] = [(SPLIT, Fraction(1))]
    else:  # pull_merge
        base = multiply_row(base, _one_caret(base.n, SPLIT, pos_i))
        comps[i:i + 1] = [(MERGE, Fraction(1))]
    return _generalized(base, *zip(*comps))
