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

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import lcm
from numbers import Rational
from operator import itemgetter
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
    _stack,
)
from .errors import DomainError, InvariantViolation

#: Finite binary trees as nested tuples: () is a leaf, (left, right) a caret.
Tree = tuple


def _leaf_depths(t: Tree) -> list[int]:
    """The depths of the leaves of ``t``, left to right, in one iterative walk."""
    depths: list[int] = []
    stack = [(t, 0)]
    while stack:
        nd, d = stack.pop()
        if nd:
            stack += ((nd[1], d + 1), (nd[0], d + 1))
        else:
            depths.append(d)
    return depths


def tree_splits(t: Tree) -> list[Event]:
    """Slice events growing ``t`` from a single strand.

    A preorder walk: each caret splits the strand at the position of its
    leftmost leaf, which is 1 plus the leaves already passed.
    """
    events: list[Event] = []
    passed = 0
    stack = [t]
    while stack:
        nd = stack.pop()
        if nd:
            events.append((SPLIT, 1 + passed))
            stack += (nd[1], nd[0])
        else:
            passed += 1
    return events


def tree_diagram(t: Tree) -> StrandDiagram:
    """The merge-free (1, leaves) diagram realizing ``t``."""
    return from_slices(SliceWord(1, tuple(tree_splits(t))))


def _tree(d: StrandDiagram, table: dict, root: int, node: str) -> Tree:
    """The tree of the ``node`` vertices of a reduced diagram, in one walk.

    A merge feeding a split is a redex, so in a reduced diagram only
    merges lie below a merge: the splits form the domain tree of the
    reduced tree pair, hanging from the source, and the merges form the
    range tree, hanging from the sink.  The split tree walks ``_down``
    from ``down[~0]``; a split at in-port 2v has children ``down[2v]``
    and ``down[2v+1]``.  The merge tree walks ``_up`` from ``_bot[0]``;
    a merge at out-port 2v has children ``up[2v]`` and ``up[2v+1]``.  Any
    other endpoint is a leaf."""
    kind = d._kind
    # Post-order on an explicit stack, as in :func:`common_refinement`.
    out: list[Tree] = []
    leaves = 0
    stack: list = [root]
    while stack:
        e = stack.pop()
        if e is None:
            right = out.pop()
            out[-1] = (out[-1], right)
        elif e >= 0 and kind[e >> 1] == node:
            stack += (None, table[e + 1], table[e])
        else:
            out.append(())
            leaves += 1
    count = list(kind.values()).count(node)
    if leaves != count + 1:
        name = "split" if node == SPLIT else "merge"
        raise InvariantViolation(f"{name} tree has {leaves} leaves, reduced diagram "
                                 f"{encode_word(d.to_slices())} has {count} {name}s")
    return out[0]


def diagram_tree(d: StrandDiagram) -> Tree:
    """The split tree of the reduced form of a (1,n) diagram, in one walk."""
    if d.m != 1:
        raise DomainError("expected a (1,n) diagram")
    d = reduce(d)
    return _tree(d, d._down, d._down[~0], SPLIT)


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
    #: The leaf depths of each tree, read once by the leaf-count check.
    _depths: tuple[list[int], list[int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        a, b = _leaf_depths(self.domain), _leaf_depths(self.range)
        if len(a) != len(b):
            raise DomainError(f"leaf counts differ: {len(a)} vs {len(b)}")
        object.__setattr__(self, "_depths", (a, b))


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
        return FElement(_stack(chain((_ONE,), repeat(g.rep, abs(k)))))

    def __eq__(self, other: object):
        if not isinstance(other, FElement):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self) -> int:
        return hash(self.rep)

    def __repr__(self) -> str:
        return f"FElement({self.rep.to_slices().events})"


def tree_pair_to_diagram(p: TreePair) -> FElement:
    """The element whose diagram is the domain tree's diagram stacked over
    the reflection (``invert``) of the range tree's, reduced."""
    return FElement(multiply(tree_diagram(p.domain), invert(tree_diagram(p.range))))


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
    """The reduced tree pair of ``a``: its split tree read down from the
    source and its merge tree read up from the sink, with no copy."""
    d = a.rep
    return TreePair(_tree(d, d._down, d._down[~0], SPLIT), _tree(d, d._up, d._bot[0], MERGE))


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

#: The first factor of every stack of letters and powers, so that an
#: empty stack is the identity.
_ONE = identity(1)
_LETTERS = {
    "a": X0,
    "A": ~X0,
    "b": X1,
    "B": ~X1,
}

def from_word(letters: Union[str, Iterable[str]]) -> FElement:
    """Product of generators; letters a, A, b, B mean x0, x0^-1, x1, x1^-1.

    Each letter is checked in input order, and a letter next to its
    inverse cancels before any diagram is built, so only the freely
    reduced word is stacked.  Its letters' diagrams are stacked and
    reduced once, seeded only at the seams, one seed per remaining seam;
    reduced forms are unique, so this equals the product taken one letter
    at a time, slice word for slice word, in time linear in the word.
    """
    word: list[str] = []
    for ch in letters:
        if ch in _LETTERS:
            if word and word[-1] == ch.swapcase():
                word.pop()
            else:
                word.append(ch)
        elif not ch.isspace():
            raise DomainError(f"unknown generator letter {ch!r}")
    return FElement(_stack([_ONE] + [_LETTERS[ch].rep for ch in word]))


# ---------------------------------------------------------------------------
# exact piecewise linear maps
#
# The arithmetic runs on int numerators over one power-of-two
# denominator 2^e; a map holds no ``Fraction`` until its ``points`` are
# first read.


def _odd(n: int) -> int:
    """The odd part of a positive int."""
    return n >> ((n & -n).bit_length() - 1)


def _check_points(den: int, xs: list[int], ys: list[int]) -> None:
    """Raise ``DomainError`` unless the points (xs[i]/den, ys[i]/den) run
    from (0,0) to (1,1), strictly increase, have power-of-two slopes (dx
    and dy have equal odd parts) and are dyadic."""
    if len(xs) < 2 or xs[0] or ys[0] or xs[-1] != den or ys[-1] != den:
        raise DomainError("breakpoints must run from (0,0) to (1,1)")
    for i in range(1, len(xs)):
        dx, dy = xs[i] - xs[i - 1], ys[i] - ys[i - 1]
        if dx <= 0 or dy <= 0:
            raise DomainError("breakpoints must be strictly increasing")
        if _odd(dx) != _odd(dy):
            raise DomainError(f"slope {Fraction(dy, dx)} is not a power of two")
    # n/den is dyadic exactly when the odd part of den divides n
    q = _odd(den)
    if q != 1:
        for x, y in zip(xs, ys):
            if x % q or y % q:
                raise DomainError(f"breakpoint ({Fraction(x, den)}, {Fraction(y, den)}) "
                                  "is not dyadic")


def _lowest(e: int, xs: list[int], ys: list[int]) -> tuple:
    """(e, xs, ys), xs and ys as tuples, with e lowered to the least that
    keeps the numerators ints, since :func:`pl_compose` doubles it and
    chains of compositions would otherwise grow it exponentially."""
    low = 0
    for x, y in zip(xs, ys):
        low |= x | y
    # the last point is (2^e, 2^e), so s <= e
    s = (low & -low).bit_length() - 1
    if s:
        e, xs, ys = e - s, [x >> s for x in xs], [y >> s for y in ys]
    return e, tuple(xs), tuple(ys)


def _require_rational(pts) -> None:
    """Raise ``DomainError`` unless every coordinate is a rational number."""
    for p in pts:
        for v in p:
            if not isinstance(v, Rational):
                raise DomainError(f"breakpoint coordinate {v!r} is not rational")


@dataclass(frozen=True, init=False)
class PLMap:
    """A PL homeomorphism of [0,1]: dyadic breakpoints, power-of-two slopes.

    ``PLMap(points)`` takes the breakpoints in increasing order, collinear
    ones allowed.  The only state is ``_num``, the canonical form
    (e, xs, ys): int numerators over 2^e with e least, keeping only the
    ends and the points where the slope changes.  ``==`` and ``hash``
    read it, so collinear extras given to ``PLMap(...)`` do not matter.
    """

    _num: tuple

    def __init__(self, points: tuple[tuple[Rational, Rational], ...]) -> None:
        _require_rational(points)
        den = lcm(*(v.denominator for p in points for v in p))
        xs = [x.numerator * (den // x.denominator) for x, _ in points]
        ys = [y.numerator * (den // y.denominator) for _, y in points]
        _check_points(den, xs, ys)
        keep = [0] + [i for i in range(1, len(xs) - 1)
                      if _slope_exp(xs, ys, i - 1) != _slope_exp(xs, ys, i)] + [len(xs) - 1]
        object.__setattr__(self, "_num", _lowest(den.bit_length() - 1, [xs[i] for i in keep],
                                                 [ys[i] for i in keep]))

    @cached_property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The canonical breakpoints as ``Fraction``s, built on first read."""
        e, xs, ys = self._num
        den = 1 << e
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in zip(xs, ys))

    @staticmethod
    def identity() -> "PLMap":
        return _pl_map(0, [0, 1], [0, 1])


def _pl_map(e: int, xs: list[int], ys: list[int]) -> PLMap:
    """The map through the points (xs[i]/2^e, ys[i]/2^e), built by the
    library with no collinear interior points: they pass the same check
    as ``PLMap``'s, and a failure is a bug."""
    try:
        _check_points(1 << e, xs, ys)
    except DomainError as exc:
        raise InvariantViolation(f"built an invalid PL map over 2^{e}: {exc}") from None
    m = object.__new__(PLMap)
    object.__setattr__(m, "_num", _lowest(e, xs, ys))
    return m


def pl_eval(m: PLMap, x) -> Fraction:
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"{x} is outside [0, 1]")
    pts = m.points
    # the segment right of the last breakpoint at or left of x; x = 1 takes the last
    i = min(bisect_right(pts, x, key=itemgetter(0)), len(pts) - 1)
    (x0, y0), (x1, y1) = pts[i - 1], pts[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _slope_exp(xs: list[int], ys: list[int], i: int) -> int:
    """k with slope 2^k on segment i: dy = dx * 2^k, so their bit lengths
    differ by k."""
    return (ys[i + 1] - ys[i]).bit_length() - (xs[i + 1] - xs[i]).bit_length()


def _times_pow2(n: int, k: int) -> int:
    """n * 2^k, asserted to be an int."""
    if k >= 0:
        return n << k
    q = n >> -k
    if q << -k != n:
        raise InvariantViolation(f"{n} / 2^{-k} is not an int: the grid is too coarse")
    return q


def pl_compose(m1: PLMap, m2: PLMap) -> PLMap:
    """The map applying ``m1`` first, then ``m2``.

    One merge sweep over the range breakpoints w of ``m1`` and the domain
    breakpoints of ``m2``, each w giving the point (m1^-1(w), m2(w)); a
    point is kept only where the product of slopes changes.  Numerators
    sit over 2^E with E = 2 max(e1, e2): a slope of ``m1`` lies in
    [2^-e1, 2^e1] and one of ``m2`` in [2^-e2, 2^e2], so every point the
    sweep computes lies on that grid, and ``_times_pow2`` asserts it.
    """
    e1, xs1, ys1 = m1._num
    e2, xs2, ys2 = m2._num
    big = 2 * max(e1, e2)
    s1, s2 = big - e1, big - e2
    X, Y = [x << s1 for x in xs1], [y << s1 for y in ys1]
    U, V = [u << s2 for u in xs2], [v << s2 for v in ys2]
    end = 1 << big
    i = j = 0
    k1, k2 = _slope_exp(X, Y, 0), _slope_exp(U, V, 0)
    xs, zs = [0], [0]
    last = None
    while True:
        w1, w2 = Y[i + 1], U[j + 1]
        w = min(w1, w2)
        x = X[i + 1] if w == w1 else X[i] + _times_pow2(w - Y[i], -k1)
        z = V[j + 1] if w == w2 else V[j] + _times_pow2(w - U[j], k2)
        if k1 + k2 == last:
            xs[-1], zs[-1] = x, z
        else:
            xs.append(x)
            zs.append(z)
            last = k1 + k2
        if w == end:
            return _pl_map(big, xs, zs)
        if w == w1:
            i += 1
            k1 = _slope_exp(X, Y, i)
        if w == w2:
            j += 1
            k2 = _slope_exp(U, V, j)


def pl_eq(m1: PLMap, m2: PLMap) -> bool:
    """Equality of the maps: their canonical forms agree."""
    return m1 == m2


def tree_pair_pl(p: TreePair) -> PLMap:
    """Leaf i spans 2^-a_i of the domain and 2^-b_i of the range, so its
    slope is 2^(a_i - b_i); a breakpoint is kept only where that changes.
    Numerators sit over 2^D, D the largest depth."""
    a, b = p._depths
    big = max(max(a), max(b))
    xs, ys = [0], [0]
    x = y = 0
    last = a[0] - b[0]
    for da, db in zip(a, b):
        if da - db != last:
            xs.append(x)
            ys.append(y)
            last = da - db
        x += 1 << (big - da)
        y += 1 << (big - db)
    xs.append(x)
    ys.append(y)
    return _pl_map(big, xs, ys)


def to_pl(a: FElement) -> PLMap:
    """The PL homeomorphism determined by the element's tree pair."""
    return tree_pair_pl(diagram_to_tree_pair(a))
