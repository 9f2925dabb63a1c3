"""Thompson's group F as (1,1) diagram classes, with an exact PL oracle.

Group elements are canonical reduced (1,1) strand diagrams.  Each
element also acts on [0,1] as a piecewise linear homeomorphism with
dyadic breakpoints and power-of-two slopes; the translation goes
through tree pairs (domain tree on top, reflected range tree below) and
gives a second, independent equality test for the word problem.

Orientation convention: the top tree of a (1,1) diagram carries the
domain partition, and stacking a over b composes the maps with a
applied first.  Both conventions are validated by the homomorphism and
relator tests rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .diagrams import (
    MERGE,
    SPLIT,
    Event,
    SliceWord,
    StrandDiagram,
    encode_word,
    from_slices,
    identity,
    invert,
    multiply,
    reduce,
    _reduce_maps,
)
from .errors import DomainError, InvariantViolation

#: Finite binary trees as nested tuples: () is a leaf, (left, right) a caret.
Tree = tuple


def leaf_count(t: Tree) -> int:
    count = 0
    stack = [t]
    while stack:
        nd = stack.pop()
        if nd:
            stack += nd
        else:
            count += 1
    return count


def tree_splits(t: Tree, pos: int = 1) -> list[Event]:
    """Slice events growing ``t`` from a single strand at position ``pos``.

    A preorder walk: each caret splits the strand at the position of its
    leftmost leaf, which is ``pos`` plus the leaves already passed.
    """
    events: list[Event] = []
    passed = 0
    stack = [t]
    while stack:
        nd = stack.pop()
        if nd:
            events.append((SPLIT, pos + passed))
            stack += (nd[1], nd[0])
        else:
            passed += 1
    return events


def tree_diagram(t: Tree) -> StrandDiagram:
    """The merge-free (1, leaves) diagram realizing ``t``."""
    return from_slices(SliceWord(1, tuple(tree_splits(t))))


def diagram_tree(d: StrandDiagram) -> Tree:
    """The split tree of the reduced form of a (1,n) diagram, in one walk.

    A merge feeding a split is a redex, so in a reduced diagram only
    merges lie below a merge and the splits form the domain tree of the
    reduced tree pair, hanging from the source.  Walking down from stub
    ``~0``, a split's out-ports are its children; any other target (a
    merge port or a sink stub) is a leaf."""
    if d.m != 1:
        raise DomainError("expected a (1,n) diagram")
    d = reduce(d)
    kind, down = d._kind, d._down
    # Post-order on an explicit stack, as in :func:`common_refinement`.
    out: list[Tree] = []
    leaves = 0
    stack: list = [down[~0]]
    while stack:
        e = stack.pop()
        if e is None:
            right = out.pop()
            out[-1] = (out[-1], right)
        elif e >= 0 and kind[e >> 1] == SPLIT:
            stack += (None, down[e + 1], down[e])
        else:
            out.append(())
            leaves += 1
    if leaves != d.split_count + 1:
        raise InvariantViolation(f"split tree has {leaves} leaves, reduced diagram "
                                 f"{encode_word(d.to_slices())} has {d.split_count} splits")
    return out[0]


def common_refinement(a: Tree, b: Tree) -> Tree:
    # Post-order on an explicit stack: a ``None`` marker pairs the two
    # refined children sitting on top of ``out``.
    out: list[Tree] = []
    stack: list = [(a, b)]
    while stack:
        top = stack.pop()
        if top is None:
            right = out.pop()
            out[-1] = (out[-1], right)
            continue
        x, y = top
        if not x or not y:
            out.append(x or y)
        else:
            stack += (None, (x[1], y[1]), (x[0], y[0]))
    return out[0]


@dataclass(frozen=True)
class TreePair:
    """A pair of binary trees with equal leaf counts."""

    domain: Tree
    range: Tree

    def __post_init__(self) -> None:
        if leaf_count(self.domain) != leaf_count(self.range):
            raise DomainError(
                f"leaf counts differ: {leaf_count(self.domain)} vs "
                f"{leaf_count(self.range)}"
            )


class FElement:
    """A group element stored as its canonical reduced (1,1) diagram."""

    __slots__ = ("rep",)

    def __init__(self, diagram: StrandDiagram) -> None:
        if diagram.m != 1 or diagram.n != 1:
            raise DomainError(
                f"group elements are (1,1) diagrams, got ({diagram.m},{diagram.n})"
            )
        object.__setattr__(self, "rep", reduce(diagram))

    def __setattr__(self, *a) -> None:
        raise AttributeError("FElement is immutable")

    @staticmethod
    def identity() -> "FElement":
        return FElement(identity(1))

    @property
    def is_identity(self) -> bool:
        return self.rep.is_identity

    def __mul__(self, other: "FElement") -> "FElement":
        return FElement(multiply(self.rep, other.rep))

    def __invert__(self) -> "FElement":
        return FElement(invert(self.rep))

    def __pow__(self, k: int) -> "FElement":
        """|k| stacked copies of the element (of its inverse when k < 0),
        reduced once."""
        g = self if k >= 0 else ~self
        return _element(g.rep.to_slices().events * abs(k))

    def __eq__(self, other: object):
        if not isinstance(other, FElement):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self) -> int:
        return hash(self.rep)

    def __repr__(self) -> str:
        return f"FElement({self.rep.to_slices().events})"


def _element(events: Iterable[Event]) -> FElement:
    """The element of a (1,1) slice word.  Nothing else holds the fresh
    diagram, so it is reduced in place rather than copied by ``reduce``."""
    return FElement(_reduce_maps(from_slices(SliceWord(1, tuple(events))), None))


def tree_pair_to_diagram(p: TreePair) -> FElement:
    """Splits of the domain tree stacked over merges of the range tree."""
    down = tree_splits(p.domain)
    up = [(MERGE if t == SPLIT else SPLIT, i) for t, i in reversed(tree_splits(p.range))]
    return _element(down + up)


def merge_free_form(d: StrandDiagram) -> tuple[StrandDiagram, int]:
    """The tree diagram of :func:`diagram_tree` and the number of rounds
    that split every merge-fed sink until no merge is left.  A round
    cancels the lowest merge above each such sink, so the rounds are the
    longest chain of merges above a sink, found walking ``_up``."""
    d = reduce(d)
    kind, up = d._kind, d._up
    rounds = 0
    # one level of merges per round; a merge v feeds on via its out-port 2v
    # and is fed through its in-ports 2v and 2v+1
    level = [e for e in d._bot if e >= 0 and kind[e >> 1] == MERGE]
    while level:
        rounds += 1
        level = [f for e in level for f in (up[e], up[e + 1])
                 if f >= 0 and kind[f >> 1] == MERGE]
    return tree_diagram(diagram_tree(d)), rounds


def diagram_to_tree_pair(a: FElement) -> TreePair:
    """The reduced tree pair of ``a``: the split trees of ``a`` and of its
    reflection, whose splits are the merges of ``a``."""
    return TreePair(diagram_tree(a.rep), diagram_tree(invert(a.rep)))


# Standard generators as tree pairs exchanging a left and a right caret;
# x1 is x0 acting on the right subinterval.  Orientation is the one under
# which the usual relator commutators vanish for left-to-right products.
_LEAF: Tree = ()
_X0_PAIR = TreePair(((_LEAF, _LEAF), _LEAF), (_LEAF, (_LEAF, _LEAF)))
_X1_PAIR = TreePair(
    (_LEAF, ((_LEAF, _LEAF), _LEAF)),
    (_LEAF, (_LEAF, (_LEAF, _LEAF))),
)

X0 = tree_pair_to_diagram(_X0_PAIR)
X1 = tree_pair_to_diagram(_X1_PAIR)

_LETTERS = {
    "a": X0,
    "A": ~X0,
    "b": X1,
    "B": ~X1,
}

#: Canonical (1,1) slice events of each generator letter.
_LETTER_EVENTS = {ch: g.rep.to_slices().events for ch, g in _LETTERS.items()}


def from_word(letters: Union[str, Iterable[str]]) -> FElement:
    """Product of generators; letters a, A, b, B mean x0, x0^-1, x1, x1^-1.

    The letters' slice words are concatenated into one (1,1) diagram,
    which is reduced once; reduced forms are unique, so this equals the
    product taken one letter at a time, in time linear in the word.
    """
    events: list[Event] = []
    for ch in letters:
        if ch.isspace():
            continue
        try:
            events += _LETTER_EVENTS[ch]
        except KeyError:
            raise DomainError(f"unknown generator letter {ch!r}") from None
    return _element(events)


# ---------------------------------------------------------------------------
# exact piecewise linear maps


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def _is_dyadic(x: Fraction) -> bool:
    return _is_pow2(x.denominator)


@dataclass(frozen=True)
class PLMap:
    """A PL homeomorphism of [0,1]: dyadic breakpoints, power-of-two slopes.

    Breakpoints are stored in canonical form (no collinear interior
    points), so map equality is plain tuple equality.
    """

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = self.points
        if len(pts) < 2 or pts[0] != (0, 0) or pts[-1] != (1, 1):
            raise DomainError("breakpoints must run from (0,0) to (1,1)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if not (x0 < x1 and y0 < y1):
                raise DomainError("breakpoints must be strictly increasing")
            slope = (y1 - y0) / (x1 - x0)
            if not (_is_pow2(slope.numerator) and _is_pow2(slope.denominator)):
                raise DomainError(f"slope {slope} is not a power of two")
        for x, y in pts:
            if not (_is_dyadic(x) and _is_dyadic(y)):
                raise DomainError(f"breakpoint ({x}, {y}) is not dyadic")

    @classmethod
    def from_points(cls, pts: Iterable[tuple[Fraction, Fraction]]) -> "PLMap":
        """Build from breakpoints, dropping collinear interior points."""
        raw = sorted({(Fraction(x), Fraction(y)) for x, y in pts})
        keep: list[tuple[Fraction, Fraction]] = []
        for p in raw:
            while len(keep) >= 2:
                (x0, y0), (x1, y1) = keep[-2], keep[-1]
                if (y1 - y0) * (p[0] - x1) == (p[1] - y1) * (x1 - x0):
                    keep.pop()
                else:
                    break
            keep.append(p)
        return cls(tuple(keep))

    @staticmethod
    def identity() -> "PLMap":
        return PLMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))


def pl_eval(m: PLMap, x) -> Fraction:
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"{x} is outside [0, 1]")
    pts = m.points
    lo, hi = 0, len(pts) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pts[mid][0] <= x:
            lo = mid
        else:
            hi = mid
    (x0, y0), (x1, y1) = pts[lo], pts[hi]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def pl_inverse(m: PLMap) -> PLMap:
    return PLMap(tuple((y, x) for x, y in m.points))


def pl_compose(m1: PLMap, m2: PLMap) -> PLMap:
    """The map applying ``m1`` first, then ``m2``."""
    inv1 = pl_inverse(m1)
    xs = {x for x, _ in m1.points}
    xs.update(pl_eval(inv1, x) for x, _ in m2.points)
    return PLMap.from_points((x, pl_eval(m2, pl_eval(m1, x))) for x in sorted(xs))


def pl_eq(m1: PLMap, m2: PLMap) -> bool:
    return m1.points == m2.points


def leaf_partition(t: Tree) -> list[Fraction]:
    """Dyadic partition points of [0,1] cut by the leaves of ``t``."""
    out = [Fraction(0)]
    stack = [(t, Fraction(0), Fraction(1))]
    while stack:
        nd, lo, hi = stack.pop()
        if not nd:
            out.append(hi)
            continue
        mid = (lo + hi) / 2
        stack += ((nd[1], mid, hi), (nd[0], lo, mid))
    return out


def tree_pair_pl(p: TreePair) -> PLMap:
    dom = leaf_partition(p.domain)
    ran = leaf_partition(p.range)
    return PLMap.from_points(zip(dom, ran))


def to_pl(a: FElement) -> PLMap:
    """The PL homeomorphism determined by the element's tree pair."""
    return tree_pair_pl(diagram_to_tree_pair(a))
