"""Split/merge strand diagrams with a two-rule reduction calculus.

A strand diagram is a planar directed acyclic graph drawn in a vertical
strip: m strands enter at the top, n leave at the bottom, and every
interior vertex either splits one strand into two or merges two adjacent
strands into one.  Diagrams are described by slice words (time-ordered
event sequences), normalized up to isotopy by a greedy leftmost
linearization, and reduced by cancelling merge-then-split and
split-then-merge pairs.  Reduction is confluent, so every diagram has
one reduced form whatever order the redexes fire in; the two rules are
written once, in ``_reduce_maps``, whose worklist a stack of reduced
factors only seeds at the seams.  Reduced diagrams multiply by stacking,
forming a groupoid graded by boundary arity; its (1,1) component is
Thompson's group F.

Vertices never have degree 4: a merge stacked directly onto a split is
cancelled on the spot, so the stored vertex taxonomy is exactly
{split, merge}.  Sources and sinks are boundary stubs, not vertices.

Endpoints are plain ints (see the comment above :func:`from_slices`), and a
diagram carries its wiring, the inverse wiring, the feeder of each sink
and a bound on its vertex ids.  Reduction edits these tables in place.
One stacking routine, behind ``multiply`` and the words and powers of
``thompson``, copies the first factor's tables whole and shifts each
later factor's vertex ids past the bound above it instead of
renumbering any factor.  So a product of reduced factors costs a
C-speed copy of the first, Python work in the size of the others, and
one unit per reduction step.

A row of components (edges, split carets and merge carets, as in an
elementary forest) is stacked by ``multiply_row`` straight onto a copy
of the diagram's tables, with no diagram built for the row: a C-speed
copy plus Python work per component, seeded only at the feeders of the
sinks that a caret meets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CompositionError, DomainError, InvariantViolation, SliceWordError

SPLIT = "S"
MERGE = "M"
#: A row component that carries one strand straight through.
EDGE = "E"

#: Strands each row component takes in and gives out.
_SOURCES = {EDGE: 1, SPLIT: 1, MERGE: 2}
_SINKS = {EDGE: 1, SPLIT: 2, MERGE: 1}
#: Each row component's reflection about the horizontal midline.
_FLIP = {EDGE: EDGE, SPLIT: MERGE, MERGE: SPLIT}

#: A slice event: ("S", i) splits strand i, ("M", i) merges strands i, i+1.
Event = tuple[str, int]


def S(i: int) -> Event:
    """Split event acting on strand i (1-based)."""
    return (SPLIT, i)


def M(i: int) -> Event:
    """Merge event acting on strands i and i+1 (1-based)."""
    return (MERGE, i)


@dataclass(frozen=True)
class SliceWord:
    """A time-ordered event sequence read against a running strand count.

    The count starts at ``sources``, gains one per split and loses one
    per merge; every event index must address an existing strand (and a
    right neighbour, for merges).  ``sinks`` is the final count.
    """

    sources: int
    events: tuple[Event, ...] = ()
    sinks: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.sources < 1:
            raise SliceWordError(f"source count must be >= 1, got {self.sources}")
        count = self.sources
        for pos, ev in enumerate(self.events):
            tag, i = ev
            if tag == SPLIT:
                if not 1 <= i <= count:
                    raise SliceWordError(
                        f"event {pos + 1}: split index {i} out of range 1..{count}"
                    )
                count += 1
            elif tag == MERGE:
                if not 1 <= i <= count - 1:
                    raise SliceWordError(
                        f"event {pos + 1}: merge index {i} out of range 1..{count - 1}"
                    )
                count -= 1
            else:
                raise SliceWordError(f"event {pos + 1}: unknown tag {tag!r}")
        object.__setattr__(self, "sinks", count)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


# Endpoints are ints.  Vertex v owns 2v (port 0) and 2v+1 (port 1) in
# both namespaces, and boundary stub k is ``~k`` (a top stub among
# out-endpoints, a bottom stub among in-endpoints), so ``e >= 0`` means
# "is a vertex port" and ``e >> 1`` is its vertex.  A split has in-port 0
# and out-ports 0 (left), 1 (right); a merge has in-ports 0 (left),
# 1 (right) and out-port 0.  Keys of the wiring ``down`` are
# out-endpoints and its values in-endpoints; ``up`` is its inverse on
# vertex ports, and ``bot[k]`` is the out-endpoint that feeds sink k.


def from_slices(word: SliceWord) -> "StrandDiagram":
    """Build the diagram described by a slice word."""
    cs = [~k for k in range(word.sources)]
    kind: dict = {}
    down: dict = {}
    up: dict = {}
    for v, (tag, i) in enumerate(word.events):
        kind[v] = tag
        e = cs[i - 1]
        down[e] = 2 * v
        up[2 * v] = e
        if tag == SPLIT:
            cs[i - 1:i] = (2 * v, 2 * v + 1)
        else:
            f = cs[i]
            down[f] = 2 * v + 1
            up[2 * v + 1] = f
            cs[i - 1:i + 1] = (2 * v,)
    for k, e in enumerate(cs):
        down[e] = ~k
    return StrandDiagram(word.sources, len(cs), kind, down, up, cs, len(word.events))


def _greedy_raw(d: "StrandDiagram") -> list[Event]:
    """Greedy leftmost linearization of a wiring.

    Repeatedly emits the ready vertex (all inputs already current) whose
    leftmost strand index is smallest.  Deterministic on the abstract
    planar structure, so isotopic diagrams produce identical words.
    A bad wiring raises ``InvariantViolation`` naming the diagram.
    """
    kind, down, up = d._kind, d._down, d._up
    cs = [~k for k in range(d.m)]
    done = set()
    events: list[Event] = []
    remaining = len(kind)
    i = 0
    while remaining:
        if i >= len(cs):
            raise InvariantViolation(
                f"no ready vertex found; wiring is not planar-acyclic in {d!r}")
        t = down[cs[i]]
        if t < 0:
            i += 1
            continue
        v = t >> 1
        if kind[v] == SPLIT:
            events.append((SPLIT, i + 1))
            cs[i:i + 1] = (t, t + 1)
        else:
            # merge: only act from its left input, once the right one is live
            if t & 1:
                i += 1
                continue
            p = up[t + 1]
            if p >= 0 and p >> 1 not in done:
                i += 1
                continue
            if i + 1 >= len(cs) or cs[i + 1] != p:
                raise InvariantViolation(f"merge inputs are live but not adjacent in {d!r}")
            events.append((MERGE, i + 1))
            cs[i:i + 2] = (t,)
        done.add(v)
        remaining -= 1
        if i:
            i -= 1
    for k, e in enumerate(cs):
        if down[e] != ~k:
            raise InvariantViolation(f"bottom stubs out of order in {d!r}")
    return events


def _reduce_maps(d: "StrandDiagram", rng: Optional[random.Random],
                 seeds: Optional[Iterable[int]] = None) -> "StrandDiagram":
    """Cancel redexes of ``d`` to a fixpoint, editing its tables in place.

    The two cancellation rules, each anchored at the upper vertex u of
    its redex: (I) u is a merge whose output feeds a split v; (II) u is a
    split whose outputs feed one merge v, left to left and right to right.
    A rewrite can only create a redex at the source of an edge it adds,
    so those sources are the only anchors pushed.  ``seeds`` must contain
    the anchor of every redex present at the start (all vertices when
    omitted).  With ``rng`` the next anchor is drawn at random.
    """
    kind, down, up, bot = d._kind, d._down, d._up, d._bot
    get = kind.get
    nv0 = len(kind)
    steps = 0
    work = list(kind if seeds is None else seeds)
    pop, push = work.pop, work.append
    while work:
        if rng is None:
            u = pop()
        else:
            idx = rng.randrange(len(work))
            u = work[idx]
            work[idx] = work[-1]
            pop()
        # t is the in-port that u's left output feeds, of vertex v
        ku = get(u)
        if ku is None:
            continue
        u0 = 2 * u
        t = down[u0]
        if t < 0:
            continue
        v = t >> 1
        if ku == MERGE:
            if kind[v] != SPLIT:
                continue
            # type I: merge u over split v
            del up[t], down[u0]
            ports = (0, 1)
        else:
            if t & 1 or kind[v] != MERGE or down[u0 + 1] != t + 1:
                continue
            # type II: split u into merge v
            del up[t], up[t + 1], down[u0], down[u0 + 1]
            ports = (0,)
        del kind[u], kind[v]
        steps += 1
        for p in ports:
            a = up.pop(u0 + p)
            b = down.pop(t + p)
            down[a] = b
            if b >= 0:
                up[b] = a
            else:
                bot[~b] = a
            if a >= 0:
                push(a >> 1)
    if 2 * steps > nv0:
        raise InvariantViolation("reduction performed more steps than vertices allow "
                                 f"in StrandDiagram({d.m}->{d.n}, {nv0} vertices)")
    d._reduced = True
    return d


class StrandDiagram:
    """Immutable planar split/merge diagram with m top and n bottom strands.

    Equality and hashing go through the canonical slice word, so two
    diagram objects compare equal exactly when they are isotopic
    respecting the boundary order.  Use :func:`equivalent` for equality
    of reduction classes.
    """

    __slots__ = ("m", "n", "_kind", "_down", "_up", "_bot", "_slots",
                 "_word", "_hash", "_reduced")

    def __init__(self, m: int, n: int, kind: dict, down: dict, up: dict,
                 bot: list, slots: int, _reduced: bool = False) -> None:
        self.m = m
        self.n = n
        self._kind = kind
        self._down = down
        self._up = up
        self._bot = bot
        #: Every vertex id is below this bound.
        self._slots = slots
        self._word: Optional[SliceWord] = None
        self._hash: Optional[int] = None
        #: True once the diagram is known to have no redex.
        self._reduced = _reduced

    def to_slices(self) -> SliceWord:
        if self._word is None:
            # the greedy events address live strands by construction, so
            # the word skips the range checks of ``SliceWord``
            w = object.__new__(SliceWord)
            object.__setattr__(w, "sources", self.m)
            object.__setattr__(w, "events", tuple(_greedy_raw(self)))
            object.__setattr__(w, "sinks", self.n)
            self._word = w
        return self._word

    @property
    def vertex_count(self) -> int:
        return len(self._kind)

    @property
    def merge_count(self) -> int:
        return sum(1 for k in self._kind.values() if k == MERGE)

    @property
    def is_identity(self) -> bool:
        return not self._kind

    def bottom_split_pairs(self) -> set[int]:
        """1-based positions k where sinks k, k+1 are the two legs of one split."""
        bot = self._bot
        # ports 0 and 1 of one vertex are both out-endpoints only on a split
        return {k + 1 for k in range(self.n - 1)
                if bot[k] >= 0 and not bot[k] & 1 and bot[k + 1] == bot[k] + 1}

    def bottom_merge_positions(self) -> set[int]:
        """1-based positions k where sink k is the output of a merge."""
        kind = self._kind
        return {k + 1 for k, e in enumerate(self._bot) if e >= 0 and kind[e >> 1] == MERGE}

    def __eq__(self, other: object):
        if not isinstance(other, StrandDiagram):
            return NotImplemented
        # isotopic diagrams have as many vertices, so a count apart needs no linearization
        return (self.m == other.m and self.n == other.n and len(self._kind) == len(other._kind)
                and self.to_slices().events == other.to_slices().events)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.m, self.to_slices().events))
        return self._hash

    def __repr__(self) -> str:
        return f"StrandDiagram({self.m}->{self.n}, {self.vertex_count} vertices)"


def identity(n: int) -> StrandDiagram:
    """The (n,n) diagram of n parallel strands."""
    return from_slices(SliceWord(n))


def is_reduced(d: StrandDiagram) -> bool:
    """True iff ``d`` has no redex, that is, iff :func:`reduce` returns it."""
    return reduce(d) is d


def reduce(d: StrandDiagram, rng: Optional[random.Random] = None) -> StrandDiagram:
    """Cancel redexes to a fixpoint.

    ``d`` itself comes back, flagged, when it has no redex: its flag is
    set, it lacks a merge or a split, or a reduced copy loses no vertex.
    Otherwise the copy comes back.  Reduction is confluent, so the
    result does not depend on the order in which redexes fire; ``rng``
    randomizes that order (for confluence experiments).
    """
    if not d._reduced:
        kinds = d._kind.values()
        if MERGE in kinds and SPLIT in kinds:
            r = _reduce_maps(StrandDiagram(d.m, d.n, dict(d._kind), dict(d._down),
                                           dict(d._up), list(d._bot), d._slots), rng)
            if len(r._kind) < len(d._kind):
                return r
        d._reduced = True
    return d


def _stack(factors: Iterable[StrandDiagram]) -> StrandDiagram:
    """One or more diagrams stacked top to bottom, reduced once.

    The first factor's tables are copied whole.  Each later factor's
    vertex ids are shifted past the bound of the stack above it, and its
    top stubs are joined to the feeders of the running sinks.  A redex
    of the stack lies in one factor or across a seam, where its anchor
    feeds a sink above the seam that meets a vertex below it.  So those
    feeders seed the reduction, plus every vertex of a factor not known
    to be reduced.
    """
    factors = iter(factors)
    a = next(factors)
    kind = dict(a._kind)
    down = dict(a._down)
    up = dict(a._up)
    bot = list(a._bot)
    s = a._slots
    seeds = [] if a._reduced else list(kind)
    for b in factors:
        if len(bot) != b.m:
            raise CompositionError(
                f"cannot stack: left factor has {len(bot)} sinks, right factor has {b.m} sources"
            )
        s2 = 2 * s
        for v, k in b._kind.items():
            kind[v + s] = k
        if not b._reduced:
            seeds.extend(v + s for v in b._kind)
        for e, t in b._down.items():
            if e < 0:
                e = bot[~e]
                if t >= 0 and e >= 0:
                    seeds.append(e >> 1)
            else:
                e += s2
            if t >= 0:
                t += s2
                up[t] = e
            down[e] = t
        # a loop, not a comprehension: most factors have one or two sinks
        below = []
        for e in b._bot:
            below.append(e + s2 if e >= 0 else bot[~e])
        bot = below
        s += b._slots
    return _reduce_maps(StrandDiagram(a.m, len(bot), kind, down, up, bot, s), None, seeds)


def multiply(a: StrandDiagram, b: StrandDiagram) -> StrandDiagram:
    """Stack ``a`` on top of ``b`` and return the reduced representative."""
    return _stack((a, b))


def multiply_row(a: StrandDiagram, kinds: Sequence[str]) -> StrandDiagram:
    """``a`` followed by one row of ``EDGE``/``SPLIT``/``MERGE`` components, reduced.

    Equals ``multiply(a, row)`` for the diagram of the row, table for
    table: ``a``'s tables are copied whole and caret j (left to right)
    becomes vertex ``a._slots + j``.  A row has no redex, so only the
    feeders of the sinks of ``a`` that a caret meets seed the reduction,
    plus every vertex of ``a`` when it is not known to be reduced.  A
    caret-free row of ``a.n`` edges is an identity of the groupoid, so a
    flagged ``a`` comes back itself, with no copy.
    """
    if a._reduced and len(kinds) == a.n == kinds.count(EDGE):
        return a
    v = a._slots
    abot = a._bot
    kind = dict(a._kind)
    down = dict(a._down)
    up = dict(a._up)
    seeds = [] if a._reduced else list(kind)
    bot: list = []
    k = 0  # the next sink of ``a``
    try:
        for c in kinds:
            e = abot[k]
            if c == EDGE:
                down[e] = ~len(bot)
                bot.append(e)
                k += 1
                continue
            t = 2 * v
            down[e] = t
            up[t] = e
            if e >= 0:
                seeds.append(e >> 1)
            if c == SPLIT:
                j = len(bot)
                down[t] = ~j
                down[t + 1] = ~(j + 1)
                bot += (t, t + 1)
                k += 1
            elif c == MERGE:
                e = abot[k + 1]
                down[e] = t + 1
                up[t + 1] = e
                if e >= 0:
                    seeds.append(e >> 1)
                down[t] = ~len(bot)
                bot.append(t)
                k += 2
            else:
                raise DomainError(f"unknown forest component {c!r}")
            kind[v] = c
            v += 1
    except IndexError:  # the row has more sources than ``a`` has sinks
        k = -1
    if k != a.n:
        # an unknown component past the last sink counts as one source
        sources = sum(_SOURCES.get(c, 1) for c in kinds)
        raise CompositionError(
            f"cannot stack: left factor has {a.n} sinks, row has {sources} sources"
        )
    d = StrandDiagram(a.m, len(bot), kind, down, up, bot, v)
    return _reduce_maps(d, None, seeds)


def invert(a: StrandDiagram) -> StrandDiagram:
    """Reflection about the horizontal midline, reduced.

    Splits and merges exchange kinds and every edge turns around, so the
    wiring of the reflection is the inverse of ``a``'s wiring, stubs
    included: sink k of ``a`` becomes source k and vice versa.
    """
    down = a._down
    kind = {v: _FLIP[k] for v, k in a._kind.items()}
    d = StrandDiagram(a.n, a.m, kind, {t: e for e, t in down.items()},
                      {e: t for e, t in down.items() if e >= 0},
                      [down[~k] for k in range(a.m)], a._slots,
                      _reduced=a._reduced)  # reflection maps redexes to redexes
    return d if d._reduced else _reduce_maps(d, None)


def encode_word(w: SliceWord) -> str:
    """Compact single-token rendering of a slice word, e.g. ``1:S1.S2.M1``."""
    return _encode(w.sources, w.events)


def _encode(sources: int, events: Iterable[Event]) -> str:
    return f"{sources}:" + ".".join(f"{t}{i}" for t, i in events)


def canonical_encoding(d: StrandDiagram) -> str:
    """Encoding of the reduced form; equal exactly for equivalent diagrams.

    The reduced form's slice word is read from its cache when it has
    one.  Otherwise the linearization is encoded and not kept, so
    encoding many diagrams, such as the vertices of a ball, caches no
    slice words.
    """
    r = reduce(d)
    return _encode(r.m, r._word.events if r._word is not None else _greedy_raw(r))


def equivalent(a: StrandDiagram, b: StrandDiagram) -> bool:
    """Equality of reduction classes."""
    return canonical_encoding(a) == canonical_encoding(b)
