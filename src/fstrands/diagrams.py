"""Split/merge strand diagrams with a two-rule reduction calculus.

A strand diagram is a planar directed acyclic graph drawn in a vertical
strip: m strands enter at the top, n leave at the bottom, and every
interior vertex either splits one strand into two or merges two adjacent
strands into one.  Diagrams are described by slice words (time-ordered
event sequences), normalized up to isotopy by a greedy leftmost
linearization, and reduced by cancelling merge-then-split and
split-then-merge pairs.  Reduction is confluent, so every diagram has
one reduced form whatever order the redexes fire in; a single worklist
of candidate anchors does the rewriting, and a product of two reduced
factors only seeds it at the seam.  Reduced diagrams multiply by
stacking, forming a groupoid graded by boundary arity; its (1,1)
component is Thompson's group F.

Vertices never have degree 4: a merge stacked directly onto a split is
cancelled on the spot, so the stored vertex taxonomy is exactly
{split, merge}.  Sources and sinks are boundary stubs, not vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import CompositionError, InvariantViolation, SliceWordError

SPLIT = "S"
MERGE = "M"

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


# Cross-section endpoints.  Out-endpoints (sources of edges) are
# ("top", k) or (vid, port); in-endpoints (targets) are ("bot", k) or
# (vid, port).  A split has in-port 0 and out-ports 0 (left), 1 (right);
# a merge has in-ports 0 (left), 1 (right) and out-port 0.  The two
# namespaces never mix: keys of the wiring dict are out-endpoints,
# values are in-endpoints.

_HEAD = ("H", -1)
_TAIL = ("T", -1)


class _Strands:
    """Doubly linked cross-section of live out-endpoints.

    Keeps a cursor (node, 1-based index) so slice events and the greedy
    scan only pay for the distance they actually move.
    """

    __slots__ = ("nxt", "prv", "node", "index")

    def __init__(self, nodes: Iterable[tuple]) -> None:
        self.nxt: dict = {}
        self.prv: dict = {}
        prev = _HEAD
        for nd in nodes:
            self.nxt[prev] = nd
            self.prv[nd] = prev
            prev = nd
        self.nxt[prev] = _TAIL
        self.prv[_TAIL] = prev
        self.node = self.nxt[_HEAD]
        self.index = 1

    def is_live(self, nd: tuple) -> bool:
        return nd in self.nxt and nd is not _HEAD

    def seek(self, i: int) -> None:
        while self.index < i:
            self.node = self.nxt[self.node]
            self.index += 1
        while self.index > i:
            self.node = self.prv[self.node]
            self.index -= 1

    def step_right(self) -> None:
        self.node = self.nxt[self.node]
        self.index += 1

    def step_left(self) -> None:
        if self.index > 1:
            self.node = self.prv[self.node]
            self.index -= 1

    def replace_one(self, new: list[tuple]) -> None:
        """Replace the node under the cursor by one or two nodes."""
        old = self.node
        left, right = self.prv[old], self.nxt[old]
        del self.nxt[old], self.prv[old]
        prev = left
        for nd in new:
            self.nxt[prev] = nd
            self.prv[nd] = prev
            prev = nd
        self.nxt[prev] = right
        self.prv[right] = prev
        self.node = new[0]

    def replace_two(self, new: tuple) -> None:
        """Replace the node under the cursor and its successor by one node."""
        a = self.node
        b = self.nxt[a]
        left, right = self.prv[a], self.nxt[b]
        del self.nxt[a], self.prv[a], self.nxt[b], self.prv[b]
        self.nxt[left] = new
        self.prv[new] = left
        self.nxt[new] = right
        self.prv[right] = new
        self.node = new


def _build(word: SliceWord) -> "StrandDiagram":
    strands = _Strands(("top", k) for k in range(word.sources))
    kind: dict = {}
    down: dict = {}
    for v, (tag, i) in enumerate(word.events):
        strands.seek(i)
        kind[v] = tag
        if tag == SPLIT:
            down[strands.node] = (v, 0)
            strands.replace_one([(v, 0), (v, 1)])
        else:
            down[strands.node] = (v, 0)
            down[strands.nxt[strands.node]] = (v, 1)
            strands.replace_two((v, 0))
    strands.seek(1)
    k = 0
    nd = strands.node
    while nd is not _TAIL:
        down[nd] = ("bot", k)
        k += 1
        nd = strands.nxt[nd]
    return StrandDiagram(word.sources, k, kind, down)


def _greedy_raw(m: int, kind: dict, down: dict) -> list[Event]:
    """Greedy leftmost linearization of a wiring.

    Repeatedly emits the ready vertex (all inputs already current) whose
    leftmost strand index is smallest.  Deterministic on the abstract
    planar structure, so isotopic diagrams produce identical words.
    """
    up = {dst: src for src, dst in down.items() if isinstance(dst[0], int)}
    strands = _Strands(("top", k) for k in range(m))
    events: list[Event] = []
    remaining = len(kind)
    while remaining:
        nd = strands.node
        if nd is _TAIL:
            raise InvariantViolation("no ready vertex found; wiring is not planar-acyclic")
        dst = down[nd]
        v = dst[0]
        if not isinstance(v, int):
            strands.step_right()
            continue
        if kind[v] == SPLIT:
            events.append((SPLIT, strands.index))
            strands.replace_one([(v, 0), (v, 1)])
            remaining -= 1
            strands.step_left()
            continue
        # merge: only act from its left input
        if dst[1] == 1:
            strands.step_right()
            continue
        partner = up[(v, 1)]
        if strands.is_live(partner):
            if strands.nxt[nd] != partner:
                raise InvariantViolation("merge inputs are live but not adjacent")
            events.append((MERGE, strands.index))
            strands.replace_two((v, 0))
            remaining -= 1
            strands.step_left()
        else:
            strands.step_right()
    strands.seek(1)
    k = 0
    nd = strands.node
    while nd is not _TAIL:
        if down[nd] != ("bot", k):
            raise InvariantViolation("bottom stubs out of order")
        k += 1
        nd = strands.nxt[nd]
    return events


def _redex_at(u: int, kind: dict, down: dict) -> Optional[tuple[str, int]]:
    """Identify a reduction redex anchored at vertex u, if any.

    Type "I": u is a merge whose output feeds a split v.
    Type "II": u is a split whose outputs feed one merge v, left to left
    and right to right.
    """
    ku = kind.get(u)
    if ku is None:
        return None
    if ku == MERGE:
        tgt = down[(u, 0)]
        v = tgt[0]
        if isinstance(v, int) and kind[v] == SPLIT:
            return ("I", v)
        return None
    t0 = down[(u, 0)]
    v = t0[0]
    if isinstance(v, int) and kind[v] == MERGE and t0[1] == 0 and down[(u, 1)] == (v, 1):
        return ("II", v)
    return None


def _apply_redex(u: int, rxtype: str, v: int, kind: dict, down: dict, up: dict):
    """Rewrite one redex in place; returns the new edges it created."""
    if rxtype == "I":
        a0, a1 = up[(u, 0)], up[(u, 1)]
        b0, b1 = down[(v, 0)], down[(v, 1)]
        del up[(u, 0)], up[(u, 1)], up[(v, 0)]
        del down[(u, 0)], down[(v, 0)], down[(v, 1)]
        del kind[u], kind[v]
        down[a0] = b0
        down[a1] = b1
        if isinstance(b0[0], int):
            up[b0] = a0
        if isinstance(b1[0], int):
            up[b1] = a1
        return ((a0, b0), (a1, b1))
    a = up[(u, 0)]
    b = down[(v, 0)]
    del up[(u, 0)], up[(v, 0)], up[(v, 1)]
    del down[(u, 0)], down[(u, 1)], down[(v, 0)]
    del kind[u], kind[v]
    down[a] = b
    if isinstance(b[0], int):
        up[b] = a
    return ((a, b),)


def _reduce_maps(m: int, n: int, kind: dict, down: dict,
                 rng: Optional[random.Random],
                 seeds: Optional[Iterable[int]] = None) -> "StrandDiagram":
    """Cancel redexes to a fixpoint, in place, from a worklist of anchors.

    A redex is anchored at its upper vertex, and a rewrite can only
    create a redex at the source of an edge it adds, so those sources
    are the only anchors pushed.  ``seeds`` must contain the anchor of
    every redex present at the start (all vertices when omitted).  With
    ``rng`` the next anchor is drawn at random from the worklist.
    """
    up = {dst: src for src, dst in down.items() if isinstance(dst[0], int)}
    nv0 = len(kind)
    steps = 0
    work = list(kind if seeds is None else seeds)
    while work:
        if rng is None:
            u = work.pop()
        else:
            idx = rng.randrange(len(work))
            u = work[idx]
            work[idx] = work[-1]
            work.pop()
        rx = _redex_at(u, kind, down)
        if rx is None:
            continue
        steps += 1
        for src, _dst in _apply_redex(u, rx[0], rx[1], kind, down, up):
            if isinstance(src[0], int):
                work.append(src[0])
    if 2 * steps > nv0:
        raise InvariantViolation("reduction performed more steps than vertices allow")
    return StrandDiagram(m, n, kind, down, _reduced=True)


class StrandDiagram:
    """Immutable planar split/merge diagram with m top and n bottom strands.

    Equality and hashing go through the canonical slice word, so two
    diagram objects compare equal exactly when they are isotopic
    respecting the boundary order.  Use :func:`equivalent` for equality
    of reduction classes.
    """

    __slots__ = ("m", "n", "_kind", "_down", "_word", "_hash", "_reduced")

    def __init__(self, m: int, n: int, kind: dict, down: dict,
                 _word: Optional[SliceWord] = None, _reduced: bool = False) -> None:
        self.m = m
        self.n = n
        self._kind = kind
        self._down = down
        self._word = _word
        self._hash: Optional[int] = None
        #: True once the diagram is known to have no redex.
        self._reduced = _reduced

    def to_slices(self) -> SliceWord:
        if self._word is None:
            events = _greedy_raw(self.m, self._kind, self._down)
            self._word = SliceWord(self.m, tuple(events))
        return self._word

    @property
    def vertex_count(self) -> int:
        return len(self._kind)

    @property
    def split_count(self) -> int:
        return sum(1 for k in self._kind.values() if k == SPLIT)

    @property
    def merge_count(self) -> int:
        return sum(1 for k in self._kind.values() if k == MERGE)

    @property
    def is_identity(self) -> bool:
        return not self._kind

    def bottom_split_pairs(self) -> set[int]:
        """1-based positions k where sinks k, k+1 are the two legs of one split."""
        feeder: dict[int, tuple] = {}
        for src, dst in self._down.items():
            if dst[0] == "bot":
                feeder[dst[1]] = src
        out = set()
        for k in range(self.n - 1):
            a, b = feeder[k], feeder[k + 1]
            if (isinstance(a[0], int) and a[0] == b[0]
                    and self._kind[a[0]] == SPLIT and a[1] == 0 and b[1] == 1):
                out.add(k + 1)
        return out

    def bottom_merge_positions(self) -> set[int]:
        """1-based positions k where sink k is the output of a merge."""
        out = set()
        for src, dst in self._down.items():
            if dst[0] == "bot" and isinstance(src[0], int) and self._kind[src[0]] == MERGE:
                out.add(dst[1] + 1)
        return out

    def __eq__(self, other: object):
        if not isinstance(other, StrandDiagram):
            return NotImplemented
        return (self.m == other.m and self.n == other.n
                and self.to_slices().events == other.to_slices().events)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.m, self.to_slices().events))
        return self._hash

    def __mul__(self, other: "StrandDiagram") -> "StrandDiagram":
        return multiply(self, other)

    def __invert__(self) -> "StrandDiagram":
        return invert(self)

    def __repr__(self) -> str:
        return f"StrandDiagram({self.m}->{self.n}, {self.vertex_count} vertices)"


def from_slices(word: SliceWord) -> StrandDiagram:
    """Build the diagram described by a slice word."""
    return _build(word)


def to_slices(d: StrandDiagram) -> SliceWord:
    """Canonical greedy-leftmost slice word of a diagram."""
    return d.to_slices()


def identity(n: int) -> StrandDiagram:
    """The (n,n) diagram of n parallel strands."""
    return _build(SliceWord(n))


def is_reduced(d: StrandDiagram) -> bool:
    """True iff no merge-split or split-merge redex exists."""
    if not d._reduced:
        d._reduced = all(_redex_at(v, d._kind, d._down) is None for v in d._kind)
    return d._reduced


def reduce(d: StrandDiagram, rng: Optional[random.Random] = None) -> StrandDiagram:
    """Cancel redexes to a fixpoint.

    Reduction is confluent, so the result does not depend on the order
    in which redexes fire.  With ``rng`` that order is randomized (useful
    for confluence experiments); otherwise anchors come off a worklist
    last in, first out.
    """
    if is_reduced(d):
        return d
    return _reduce_maps(d.m, d.n, dict(d._kind), dict(d._down), rng)


def multiply(a: StrandDiagram, b: StrandDiagram,
             rng: Optional[random.Random] = None) -> StrandDiagram:
    """Stack ``a`` on top of ``b`` and return the reduced representative.

    When both factors are reduced, every redex of the stack crosses the
    seam, so only the vertices of ``a`` that feed its bottom stubs seed
    the reduction.  Unreduced factors seed every vertex.
    """
    if a.n != b.m:
        raise CompositionError(
            f"cannot stack: left factor has {a.n} sinks, right factor has {b.m} sources"
        )
    amap = {v: i for i, v in enumerate(a._kind)}
    bmap = {v: len(amap) + i for i, v in enumerate(b._kind)}

    def re_a(ep: tuple) -> tuple:
        return ep if not isinstance(ep[0], int) else (amap[ep[0]], ep[1])

    def re_b(ep: tuple) -> tuple:
        return ep if not isinstance(ep[0], int) else (bmap[ep[0]], ep[1])

    kind = {amap[v]: k for v, k in a._kind.items()}
    kind.update({bmap[v]: k for v, k in b._kind.items()})
    seam = {}
    down: dict = {}
    for src, dst in b._down.items():
        if src[0] == "top":
            seam[src[1]] = re_b(dst)
        else:
            down[re_b(src)] = re_b(dst)
    feeders = []
    for src, dst in a._down.items():
        if dst[0] == "bot":
            down[re_a(src)] = seam[dst[1]]
            if isinstance(src[0], int):
                feeders.append(amap[src[0]])
        else:
            down[re_a(src)] = re_a(dst)
    seeds = feeders if a._reduced and b._reduced else None
    return _reduce_maps(a.m, b.n, kind, down, rng, seeds)


def invert(a: StrandDiagram) -> StrandDiagram:
    """Reflection about the horizontal midline, reduced.

    On slice words this reverses the event sequence and exchanges
    splits with merges at the same index.
    """
    w = a.to_slices()
    flipped = tuple(
        (MERGE if tag == SPLIT else SPLIT, i) for tag, i in reversed(w.events)
    )
    d = _build(SliceWord(a.n, flipped))
    d._reduced = a._reduced  # reflection maps redexes to redexes
    return reduce(d)


def encode_word(w: SliceWord) -> str:
    """Compact single-token rendering of a slice word, e.g. ``1:S1.S2.M1``."""
    return f"{w.sources}:" + ".".join(f"{t}{i}" for t, i in w.events)


def canonical_encoding(d: StrandDiagram) -> str:
    """Encoding of the reduced form; equal exactly for equivalent diagrams."""
    return encode_word(reduce(d).to_slices())


def equivalent(a: StrandDiagram, b: StrandDiagram) -> bool:
    """Equality of reduction classes."""
    return canonical_encoding(a) == canonical_encoding(b)
