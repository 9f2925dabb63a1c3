"""Seeded generators and independent oracles shared by the test suite.

Everything here is deliberately separate from the library: the oracles
re-derive expected behaviour by brute force (commutation closure,
structural fingerprints, direct formula evaluation) so that library
bugs cannot hide behind themselves.
"""

from __future__ import annotations

import random
import re
from collections import deque
from fractions import Fraction

from fstrands.diagrams import (
    _SOURCES,
    MERGE,
    SPLIT,
    Event,
    SliceWord,
    StrandDiagram,
    from_slices,
    multiply,
)
from fstrands.cubes import ComplexVertex, Cube, OrbitKey, cube_from_forest
from fstrands.errors import DomainError, InvariantViolation
from fstrands.forests import (
    EDGE,
    ElementaryForest,
    GeneralizedStrandDiagram,
    WeightedElementaryForest,
    _one_caret,
    canonicalize_generalized,
)
from fstrands.diagrams import invert, multiply_row
from fstrands.thompson import X0, X1, FElement, PLMap, Tree, TreePair, _pl_map


def rng(seed: int) -> random.Random:
    return random.Random(seed)


# ---------------------------------------------------------------------------
# random generators


def random_slice_word(r: random.Random, *, m: int | None = None,
                      max_events: int = 40, m_max: int = 6,
                      bias: float = 0.5) -> SliceWord:
    if m is None:
        m = r.randint(1, m_max)
    count = m
    events: list[Event] = []
    for _ in range(r.randint(0, max_events)):
        if count == 1 or r.random() < bias:
            events.append((SPLIT, r.randint(1, count)))
            count += 1
        else:
            events.append((MERGE, r.randint(1, count - 1)))
            count -= 1
    return SliceWord(m, tuple(events))


def random_diagram(r: random.Random, **kw) -> StrandDiagram:
    return from_slices(random_slice_word(r, **kw))


def random_rational(r: random.Random, *, open_unit: bool = False) -> Fraction:
    """A rational in [0,1], or in (0,1) when open_unit is set."""
    den = r.choice([2, 3, 4, 5, 8, 16, 32])
    if open_unit:
        return Fraction(r.randint(1, den - 1), den)
    return Fraction(r.randint(0, den), den)


def random_elementary_forest(r: random.Random, n: int,
                             kinds: str = "ESM") -> ElementaryForest:
    comps: list[str] = []
    left = n
    while left:
        choices = [k for k in kinds if k != MERGE or left >= 2]
        k = r.choice(choices)
        comps.append(k)
        left -= 2 if k == MERGE else 1
    return ElementaryForest(tuple(comps))


def random_weighted_forest(r: random.Random, n: int, *,
                           open_unit: bool = True) -> WeightedElementaryForest:
    f = random_elementary_forest(r, n)
    weights = tuple(
        None if k == EDGE else random_rational(r, open_unit=open_unit)
        for k in f.components
    )
    return WeightedElementaryForest(f.components, weights)


def random_vertex_diagram(r: random.Random, max_carets: int = 12) -> StrandDiagram:
    from fstrands.diagrams import reduce as dreduce

    return dreduce(random_diagram(r, m=1, max_events=max_carets))


def random_generalized(r: random.Random, *, max_carets: int = 10,
                       open_unit: bool = True) -> GeneralizedStrandDiagram:
    base = random_vertex_diagram(r, max_carets)
    forest = random_weighted_forest(r, base.n, open_unit=open_unit)
    return GeneralizedStrandDiagram(base, forest)


def weighted_forest(*pairs) -> WeightedElementaryForest:
    """The forest of components written ``"E"`` or ``(kind, weight)``,
    built by the public constructor, which checks every weight."""
    kinds = tuple(p if isinstance(p, str) else p[0] for p in pairs)
    weights = tuple(None if isinstance(p, str) else p[1] for p in pairs)
    return WeightedElementaryForest(kinds, weights)


def assert_as_if_checked(out: GeneralizedStrandDiagram) -> None:
    """``out``, built by the library without the public checks, is what
    the public constructors build from its rows and holds what they hold:
    tuple rows, ``Fraction`` caret weights in [0, 1], a flagged base."""
    f = out.forest
    assert out.base._reduced  # before the constructor's ``reduce`` flags it
    assert type(f.kinds) is tuple and type(f.weights) is tuple
    assert all(type(w) is Fraction and 0 <= w <= 1
               for k, w in zip(f.kinds, f.weights) if k != EDGE)
    assert out == GeneralizedStrandDiagram(out.base, WeightedElementaryForest(f.kinds, f.weights))


def random_f_word(r: random.Random, max_len: int = 12) -> str:
    k = r.randint(0, max_len)
    return "".join(r.choice("aAbB") for _ in range(k))


def random_cf_tuple(r: random.Random, n: int) -> tuple[Fraction, ...]:
    """A tuple satisfying both configuration conditions, by construction."""
    t = [Fraction(r.randint(-8, 8), r.choice([1, 2, 4]))]
    prev_gap = Fraction(2)
    for _ in range(n - 1):
        gap = Fraction(r.randint(0, 16), 8)
        if prev_gap + gap < 1:
            gap = 1 - prev_gap
        t.append(t[-1] + gap)
        prev_gap = gap
    return tuple(t)


def random_df_point(r: random.Random, max_components: int = 8) -> tuple[Fraction, ...]:
    """A duplicate-free tuple built from the gap grammar of the image of
    the configuration map: short gaps are isolated between unit gaps."""
    out = [Fraction(1)]
    for _ in range(r.randint(0, max_components - 1)):
        if r.random() < 0.5:
            out.append(out[-1] + random_rational(r, open_unit=True))
        out.append(out[-1] + 1)
    if r.random() < 0.5 and len(out) >= 1:
        out.append(out[-1] + random_rational(r, open_unit=True))
    return tuple(out)


# ---------------------------------------------------------------------------
# independent oracles


def swap_adjacent(ev1: Event, ev2: Event) -> tuple[Event, Event] | None:
    """Swap two consecutive events acting on disjoint strands.

    Returns the index-adjusted swapped pair, or None when the events are
    sequentially dependent.  Derived by hand from how each event shifts
    the strand numbering; validated against structural fingerprints.
    """
    (t1, i), (t2, j) = ev1, ev2
    if t1 == SPLIT:
        if t2 == SPLIT:
            if j <= i - 1:
                return (SPLIT, j), (SPLIT, i + 1)
            if j >= i + 2:
                return (SPLIT, j - 1), (SPLIT, i)
        else:
            if j <= i - 2:
                return (MERGE, j), (SPLIT, i - 1)
            if j >= i + 2:
                return (MERGE, j - 1), (SPLIT, i)
    else:
        if t2 == SPLIT:
            if j <= i - 1:
                return (SPLIT, j), (MERGE, i + 1)
            if j >= i + 1:
                return (SPLIT, j + 1), (MERGE, i)
        else:
            if j <= i - 2:
                return (MERGE, j), (MERGE, i - 1)
            if j >= i + 1:
                return (MERGE, j + 1), (MERGE, i)
    return None


def commutation_closure(word: SliceWord, limit: int = 200_000) -> set[tuple[Event, ...]]:
    """All event sequences reachable by swapping independent neighbours."""
    seen = {word.events}
    todo = [word.events]
    while todo:
        evs = todo.pop()
        for k in range(len(evs) - 1):
            sw = swap_adjacent(evs[k], evs[k + 1])
            if sw is None:
                continue
            new = evs[:k] + sw + evs[k + 2:]
            if new not in seen:
                if len(seen) >= limit:
                    raise RuntimeError("commutation closure blew past the cap")
                seen.add(new)
                todo.append(new)
    return seen


def structural_signature(d: StrandDiagram) -> tuple:
    """Boundary-respecting fingerprint of the wiring, independent of the
    greedy linearization.  Vertices are renamed by first visit in a
    deterministic traversal from the top stubs."""
    down, kind = d._down, d._kind
    names: dict[int, int] = {}
    out: list[tuple] = []
    queue: list[int] = [~k for k in range(d.m)]
    qi = 0
    while qi < len(queue):
        src = queue[qi]
        qi += 1
        dst = down[src]
        if dst >= 0:
            v = dst >> 1
            if v not in names:
                names[v] = len(names)
                if kind[v] == SPLIT:
                    queue.append(2 * v)
                    queue.append(2 * v + 1)
                else:
                    queue.append(2 * v)
            dkey = f"{kind[v]}{names[v]}.{dst & 1}"
        else:
            dkey = f"bot{~dst}"
        if src >= 0:
            skey = f"{kind[src >> 1]}{names[src >> 1]}.{src & 1}"
        else:
            skey = f"top{~src}"
        out.append((skey, dkey))
    return (d.m, d.n, tuple(sorted(out)))


def check_tables(d: StrandDiagram) -> None:
    """Assert that the tables a diagram carries agree with its wiring.

    ``_up`` is the exact inverse of ``_down`` on vertex ports, ``_bot[k]``
    is the one out-endpoint wired to sink ``~k``, every vertex owns the
    ports its kind calls for, and every vertex id is below ``_slots``.
    """
    down, kind = d._down, d._kind
    assert d._up == {t: e for e, t in down.items() if t >= 0}
    assert len(d._bot) == d.n
    assert {e: t for e, t in down.items() if t < 0} == {e: ~k for k, e in enumerate(d._bot)}
    assert all(0 <= v < d._slots for v in kind)
    outs = {~k for k in range(d.m)}
    for v, k in kind.items():
        outs.update((2 * v, 2 * v + 1) if k == SPLIT else (2 * v,))
    assert set(down) == outs
    ins = set()
    for v, k in kind.items():
        ins.update((2 * v,) if k == SPLIT else (2 * v, 2 * v + 1))
    assert set(d._up) == ins


def row_slice_word(row) -> SliceWord:
    """The slice word of a forest row, built without ``multiply_row``:
    left to right, each caret acts once the carets before it have turned
    their strands into sinks."""
    events = []
    pos = 1
    for c in row:
        if c != EDGE:
            events.append((c, pos))
        pos += 2 if c == SPLIT else 1
    return SliceWord(sum(2 if c == MERGE else 1 for c in row), tuple(events))


# ---------------------------------------------------------------------------
# reference diagram core: tuple endpoints
#
# The library's first core, kept as the reference for the int-encoded one.
# Out-endpoints are ("top", k) or (vid, port); in-endpoints are ("bot", k)
# or (vid, port).  A diagram is the tuple (m, n, kind, down).

_HEAD = ("H", -1)
_TAIL = ("T", -1)


class _Strands:
    """Doubly linked cross-section of live out-endpoints, with a cursor."""

    __slots__ = ("nxt", "prv", "node", "index")

    def __init__(self, nodes) -> None:
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


def reference_build(word: SliceWord) -> tuple:
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
    return (word.sources, k, kind, down)


def reference_greedy(ref: tuple) -> tuple[Event, ...]:
    """Greedy leftmost linearization of a reference diagram."""
    m, _n, kind, down = ref
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
    return tuple(events)


def _reference_redex_at(u: int, kind: dict, down: dict):
    ku = kind.get(u)
    if ku is None:
        return None
    if ku == MERGE:
        v = down[(u, 0)][0]
        if isinstance(v, int) and kind[v] == SPLIT:
            return ("I", v)
        return None
    t0 = down[(u, 0)]
    v = t0[0]
    if isinstance(v, int) and kind[v] == MERGE and t0[1] == 0 and down[(u, 1)] == (v, 1):
        return ("II", v)
    return None


def reference_is_reduced(word: SliceWord) -> bool:
    """No vertex of the reference build of ``word`` anchors a redex."""
    _m, _n, kind, down = reference_build(word)
    return all(_reference_redex_at(u, kind, down) is None for u in kind)


def reference_reduce(ref: tuple) -> tuple:
    """Reduce a copy of a reference diagram from a worklist seeded with
    every vertex, rebuilding the inverse wiring once."""
    m, n, kind, down = ref
    kind, down = dict(kind), dict(down)
    up = {dst: src for src, dst in down.items() if isinstance(dst[0], int)}
    work = list(kind)
    while work:
        u = work.pop()
        rx = _reference_redex_at(u, kind, down)
        if rx is None:
            continue
        v = rx[1]
        if rx[0] == "I":
            a0, a1 = up[(u, 0)], up[(u, 1)]
            b0, b1 = down[(v, 0)], down[(v, 1)]
            del up[(u, 0)], up[(u, 1)], up[(v, 0)]
            del down[(u, 0)], down[(v, 0)], down[(v, 1)]
            edges = ((a0, b0), (a1, b1))
        else:
            a, b = up[(u, 0)], down[(v, 0)]
            del up[(u, 0)], up[(v, 0)], up[(v, 1)]
            del down[(u, 0)], down[(u, 1)], down[(v, 0)]
            edges = ((a, b),)
        del kind[u], kind[v]
        for src, dst in edges:
            down[src] = dst
            if isinstance(dst[0], int):
                up[dst] = src
            if isinstance(src[0], int):
                work.append(src[0])
    return (m, n, kind, down)


def reference_stack(a: tuple, b: tuple) -> tuple:
    """Stack reference diagram ``a`` on ``b``, renumbering both, unreduced."""
    am, an, akind, adown = a
    _bm, bn, bkind, bdown = b
    amap = {v: i for i, v in enumerate(akind)}
    bmap = {v: len(amap) + i for i, v in enumerate(bkind)}

    def re(ep: tuple, vmap: dict) -> tuple:
        return ep if not isinstance(ep[0], int) else (vmap[ep[0]], ep[1])

    kind = {amap[v]: k for v, k in akind.items()}
    kind.update({bmap[v]: k for v, k in bkind.items()})
    seam = {}
    down: dict = {}
    for src, dst in bdown.items():
        if src[0] == "top":
            seam[src[1]] = re(dst, bmap)
        else:
            down[re(src, bmap)] = re(dst, bmap)
    for src, dst in adown.items():
        down[re(src, amap)] = seam[dst[1]] if dst[0] == "bot" else re(dst, amap)
    return (am, bn, kind, down)


def reference_signature(ref: tuple) -> tuple:
    """:func:`structural_signature` of a reference diagram."""
    m, n, kind, down = ref
    names: dict[int, int] = {}
    out: list[tuple] = []
    queue: list[tuple] = [("top", k) for k in range(m)]
    qi = 0
    while qi < len(queue):
        src = queue[qi]
        qi += 1
        dst = down[src]
        v = dst[0]
        if isinstance(v, int):
            if v not in names:
                names[v] = len(names)
                if kind[v] == SPLIT:
                    queue.append((v, 0))
                    queue.append((v, 1))
                else:
                    queue.append((v, 0))
            dkey = f"{kind[v]}{names[v]}.{dst[1]}"
        else:
            dkey = f"bot{dst[1]}"
        if isinstance(src[0], int):
            skey = f"{kind[src[0]]}{names[src[0]]}.{src[1]}"
        else:
            skey = f"top{src[1]}"
        out.append((skey, dkey))
    return (m, n, tuple(sorted(out)))


def complete_tree(depth: int) -> Tree:
    """The binary tree with 2**depth leaves, all at the given depth."""
    t: Tree = ()
    for _ in range(depth):
        t = (t, t)
    return t


def full_round_merge_free_form(d: StrandDiagram) -> tuple[StrandDiagram, int]:
    """Reference refinement that splits *every* sink in each round.

    Leaves double each round, so use it on small inputs only.  Returns
    the merge-free diagram and the number of rounds, like
    :func:`fstrands.thompson.merge_free_form`.
    """
    rounds = 0
    while d.merge_count:
        before = d.merge_count
        full = SliceWord(d.n, tuple((SPLIT, 2 * k + 1) for k in range(d.n)))
        d = multiply(d, from_slices(full))
        rounds += 1
        if d.merge_count >= before:
            raise InvariantViolation("merge count failed to decrease in a splitting round")
    return d, rounds


def full_round_tree_pair(a: FElement) -> TreePair:
    """A tree pair of ``a`` whose range is the complete tree of its rounds."""
    tree_part, rounds = full_round_merge_free_form(a.rep)
    return TreePair(reference_diagram_tree(tree_part), complete_tree(rounds))


def reference_diagram_tree(d: StrandDiagram) -> Tree:
    """Reference tree reader for merge-free (1,n) diagrams: fold the
    canonical slice word bottom-up, the split at strand i joining the
    subtrees below strands i and i+1 into one caret."""
    assert d.m == 1 and not d.merge_count
    subtrees: list[Tree] = [()] * d.n
    for _tag, i in reversed(d.to_slices().events):
        subtrees[i - 1:i + 1] = [(subtrees[i - 1], subtrees[i])]
    return subtrees[0]


def reference_merge_free_form(d: StrandDiagram) -> tuple[StrandDiagram, int]:
    """Reference refinement by splitting rounds: each round right-multiplies
    by the forest that splits only the sinks fed by a merge, and reduces.
    Returns the merge-free diagram and the number of rounds, like
    :func:`fstrands.thompson.merge_free_form`.  One whole product per
    round, so quadratic on ``(ab)^k``."""
    rounds = 0
    while d.merge_count:
        before = d.merge_count
        fed = sorted(d.bottom_merge_positions())
        splits = SliceWord(d.n, tuple((SPLIT, k + j) for j, k in enumerate(fed)))
        d = multiply(d, from_slices(splits))
        rounds += 1
        if d.merge_count >= before:
            raise InvariantViolation("merge count failed to decrease in a splitting round")
    return d, rounds


def reference_tree_pair(a: FElement) -> TreePair:
    """Reference reduced tree pair: the domain is the rounds-based merge-free
    form of ``a``, the range the reduced product ``a^-1 * domain``."""
    tree_part, _ = reference_merge_free_form(a.rep)
    return TreePair(reference_diagram_tree(tree_part),
                    reference_diagram_tree(multiply(invert(a.rep), tree_part)))


def left_fold_from_word(letters: str) -> FElement:
    """Reference word product: one group multiply per letter, left to right.

    Quadratic in the word length, so use it on short words only.
    """
    gens = {"a": X0, "A": ~X0, "b": X1, "B": ~X1}
    out = FElement.identity()
    for ch in letters:
        out = out * gens[ch]
    return out


def reference_free_reduce(letters: str) -> str:
    """Reference free reduction of a word in a, A, b, B: whitespace
    dropped, then inverse pairs deleted until none is left."""
    word = "".join(letters.split())
    while True:
        shorter = re.sub("aA|Aa|bB|Bb", "", word)
        if shorter == word:
            return word
        word = shorter


def reference_elementary_forests_at(n: int):
    """Reference forest enumeration: one recursion level per strand.

    Each row of the rest comes with an edge and then a split in front
    (first component fastest); the rows that start with a merge come
    last.  Deeper than the recursion limit for large n, and exponential:
    use it on small n only.
    """

    def gen(left: int):
        if left == 0:
            yield ()
            return
        for rest in gen(left - 1):
            yield (EDGE,) + rest
            yield (SPLIT,) + rest
        if left >= 2:
            for rest in gen(left - 2):
                yield (MERGE,) + rest

    for comps in gen(n):
        yield ElementaryForest(comps)


def caret_count(forest: ElementaryForest) -> int:
    """The number of split and merge carets of a forest."""
    return sum(1 for c in forest.components if c != EDGE)


def split_count(d: StrandDiagram) -> int:
    """The number of split vertices of a diagram, counted off its linearization."""
    return sum(1 for k, _ in d.to_slices().events if k == SPLIT)


def reference_cubes_at(v: ComplexVertex, max_dim: int):
    """Reference cube listing: the full enumeration filtered by caret count,
    with repeated cubes dropped."""
    seen = set()
    for forest in reference_elementary_forests_at(v.n):
        if caret_count(forest) > max_dim:
            continue
        cube = cube_from_forest(v, forest)
        key = (cube.top.label(), cube.splits.components)
        if key not in seen:
            seen.add(key)
            yield cube


def reference_quotient_ball(v: ComplexVertex, radius: int, cap: int) -> tuple:
    """(root, vertices, edges) of the quotient ball, found by breadth-first
    search: each vertex inside the radius gets its 2n - 1 single-caret
    neighbours built with ``multiply`` and named by their orbit keys.  A
    new vertex found when ``cap`` are known raises ``DomainError``."""
    def name(x: ComplexVertex) -> str:
        return str(reference_orbit_key(GeneralizedStrandDiagram.vertex(x.diagram)))

    start = name(v)
    dist = {start: 0}
    edges = set()
    queue = deque([(start, v)])
    while queue:
        nx, x = queue.popleft()
        if dist[nx] == radius:
            continue
        n = x.n
        moves = ([("up", (SPLIT, i)) for i in range(1, n + 1)]
                 + [("down", (MERGE, i)) for i in range(1, n)])
        for direction, ev in moves:
            y = ComplexVertex(multiply(x.diagram, from_slices(SliceWord(n, (ev,)))))
            ny = name(y)
            edges.add((nx, ny) if direction == "up" else (ny, nx))
            if ny not in dist:
                if len(dist) >= cap:
                    raise DomainError(f"ball exceeded the vertex cap ({cap})")
                dist[ny] = dist[nx] + 1
                queue.append((ny, y))
    return start, tuple(sorted(dist)), tuple(sorted(edges))


def reference_parameterize(cube: Cube, base: ComplexVertex, coords) -> GeneralizedStrandDiagram:
    """Reference parameterization: the corner flags of ``base`` found by
    building all 2^d corners and comparing each with ``base``."""
    d = cube.dimension
    ws = [Fraction(c) for c in coords]
    if len(ws) != d:
        raise DomainError(f"cube has dimension {d}, got {len(ws)} coordinates")
    matches = [eps for eps, corner in cube.corners() if corner == base]
    if not matches:
        raise DomainError("base vertex is not a corner of the cube")
    if len(matches) > 1:
        raise DomainError("degenerate cube: base matches several corners")
    eps = matches[0]
    comps: list = []
    k = 0
    for c in cube.splits.components:
        if c == EDGE:
            comps.append(EDGE)
        else:
            comps.append((MERGE, ws[k]) if eps[k] else (SPLIT, ws[k]))
            k += 1
    g = GeneralizedStrandDiagram(base.diagram, weighted_forest(*comps))
    return canonicalize_generalized(g)


def reference_orbit_key(p: GeneralizedStrandDiagram) -> OrbitKey:
    """The orbit key read off the canonical form: its edges and splits as
    they are, and each merge of weight w from the top corner of the
    supporting cube, where it is a split of weight 1 - w."""
    comps: list = []
    for k, w in canonicalize_generalized(p).forest.pairs():
        if k == EDGE:
            comps.append(EDGE)
        elif k == SPLIT:
            comps.append((SPLIT, w))
        else:
            comps.append((SPLIT, 1 - w))
    return OrbitKey(tuple(comps))


def forests_by_carets(n: int, max_carets: int) -> list[int]:
    """How many forests on n strands have k carets, for k <= max_carets.

    An edge or a split caret takes one strand and a merge caret two, so
    c(n, k) = c(n-1, k) + c(n-1, k-1) + c(n-2, k-1), with c(0, k) = [k == 0].
    """
    rows = [[1] + [0] * max_carets]
    for left in range(1, n + 1):
        rows.append([
            rows[left - 1][k]
            + (rows[left - 1][k - 1] if k else 0)
            + (rows[left - 2][k - 1] if k and left >= 2 else 0)
            for k in range(max_carets + 1)
        ])
    return rows[n]


# ---------------------------------------------------------------------------
# reference canonicalization: one move at a time


def _positions(kinds) -> list[int]:
    """1-based position of each component, after the source strands of those before it."""
    out = []
    pos = 1
    for k in kinds:
        out.append(pos)
        pos += _SOURCES[k]
    return out


def reference_canonicalize_generalized(g: GeneralizedStrandDiagram) -> GeneralizedStrandDiagram:
    """Reference canonical form: the library's first scheduler, one move
    per row stacked, restarting after each move.

    Fixpoint of three moves: weight-0 carets dissolve into edges,
    weight-1 carets are absorbed into the base, and carets meeting an
    opposite base-bottom vertex flip (weight w becomes 1-w) while that
    vertex leaves the base.  Each move strictly shrinks twice the caret
    count plus the base vertex count, so the loop terminates.
    """
    base = g.base
    comps = g.forest.pairs()
    changed = True
    while changed:
        changed = False
        # weight-0 carets dissolve
        for i, (k, w) in enumerate(comps):
            if k == SPLIT and w == 0:
                comps[i:i + 1] = [(EDGE, None)]
                changed = True
                break
            if k == MERGE and w == 0:
                comps[i:i + 1] = [(EDGE, None), (EDGE, None)]
                changed = True
                break
        if changed:
            continue
        # weight-1 carets are absorbed into the base
        pos = _positions(k for k, _ in comps)
        for i, (k, w) in enumerate(comps):
            if w == 1:
                base = multiply_row(base, _one_caret(base.n, k, pos[i]))
                if k == SPLIT:
                    comps[i:i + 1] = [(EDGE, None), (EDGE, None)]
                else:
                    comps[i:i + 1] = [(EDGE, None)]
                changed = True
                break
        if changed:
            continue
        # interface rewrites at the seam
        split_pairs = base.bottom_split_pairs()
        merge_stubs = base.bottom_merge_positions()
        pos = _positions(k for k, _ in comps)
        for i, (k, w) in enumerate(comps):
            if k == MERGE and pos[i] in split_pairs:
                base = multiply_row(base, _one_caret(base.n, MERGE, pos[i]))
                comps[i] = (SPLIT, 1 - w)
                changed = True
                break
            if k == SPLIT and pos[i] in merge_stubs:
                base = multiply_row(base, _one_caret(base.n, SPLIT, pos[i]))
                comps[i] = (MERGE, 1 - w)
                changed = True
                break
    kinds = tuple(k for k, _ in comps)
    weights = tuple(w for _, w in comps)
    return GeneralizedStrandDiagram(base, WeightedElementaryForest(kinds, weights))


# ---------------------------------------------------------------------------
# reference PL maps: Fraction arithmetic
#
# The library's first PL layer, kept as the reference for the integer one:
# partition points by halving intervals, collinear points dropped by cross
# products, composition by evaluating at every breakpoint.


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def reference_pl_check(pts) -> str | None:
    """The message the first ``PLMap`` validator raised for ``pts``, or None."""
    if len(pts) < 2 or pts[0] != (0, 0) or pts[-1] != (1, 1):
        return "breakpoints must run from (0,0) to (1,1)"
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if not (x0 < x1 and y0 < y1):
            return "breakpoints must be strictly increasing"
        slope = (y1 - y0) / (x1 - x0)
        if not (_is_pow2(slope.numerator) and _is_pow2(slope.denominator)):
            return f"slope {slope} is not a power of two"
    for x, y in pts:
        if not (_is_pow2(x.denominator) and _is_pow2(y.denominator)):
            return f"breakpoint ({x}, {y}) is not dyadic"
    return None


def reference_canonical_points(pts) -> tuple[tuple[Fraction, Fraction], ...]:
    """Sort and deduplicate the points, then drop collinear interior ones."""
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
    return tuple(keep)


def reference_from_points(pts) -> PLMap:
    return PLMap(reference_canonical_points(pts))


def reference_leaf_partition(t: Tree) -> list[Fraction]:
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


def reference_tree_pair_pl(p: TreePair) -> PLMap:
    return reference_from_points(zip(reference_leaf_partition(p.domain),
                                     reference_leaf_partition(p.range)))


def reference_pl_eval(points, x: Fraction) -> Fraction:
    """Binary search for the segment holding x, then interpolate."""
    lo, hi = 0, len(points) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if points[mid][0] <= x:
            lo = mid
        else:
            hi = mid
    (x0, y0), (x1, y1) = points[lo], points[hi]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def pl_inverse(m: PLMap) -> PLMap:
    """The inverse map: the canonical breakpoints with x and y swapped."""
    e, xs, ys = m._num
    return _pl_map(e, ys, xs)


def reference_pl_compose(m1: PLMap, m2: PLMap) -> PLMap:
    """``m1`` then ``m2``, evaluated at the breakpoints of ``m1`` and the
    preimages under ``m1`` of the breakpoints of ``m2``."""
    inv1 = tuple((y, x) for x, y in m1.points)
    xs = {x for x, _ in m1.points}
    xs.update(reference_pl_eval(inv1, x) for x, _ in m2.points)
    return reference_from_points(
        (x, reference_pl_eval(m2.points, reference_pl_eval(m1.points, x))) for x in sorted(xs))


# ---------------------------------------------------------------------------
# reference configurations: every step in Fraction arithmetic


def reference_is_in_cf(t) -> bool:
    """Nonempty (else ``DomainError``), nondecreasing, t[i+2] - t[i] >= 1."""
    t = tuple(Fraction(v) for v in t)
    if not t:
        raise DomainError("configurations have at least one entry")
    if any(a > b for a, b in zip(t, t[1:])):
        return False
    return all(t[i + 2] - t[i] >= 1 for i in range(len(t) - 2))


def reference_require_cf(t) -> tuple[Fraction, ...]:
    t = tuple(Fraction(v) for v in t)
    if not reference_is_in_cf(t):
        raise DomainError(f"{' '.join(map(str, t))} is not a configuration")
    return t


def reference_canonicalize_cf(t) -> tuple[Fraction, ...]:
    t = reference_require_cf(t)
    out = [t[0]]
    for x in t[1:]:
        if x != out[-1]:
            out.append(x)
    return tuple(out)


def reference_expand(t, i: int) -> tuple[Fraction, ...]:
    t = reference_require_cf(t)
    if not 1 <= i <= len(t):
        raise DomainError(f"index {i} out of range 1..{len(t)}")
    x = t[i - 1]
    if i >= 2 and x - t[i - 2] < 1:
        raise DomainError(f"entry {i} is only {x - t[i - 2]} from its left neighbour")
    if i <= len(t) - 1 and t[i] - x < 1:
        raise DomainError(f"entry {i} is only {t[i] - x} from its right neighbour")
    return t[: i - 1] + (x, x) + t[i:]


def _reference_time(s) -> Fraction:
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise DomainError(f"time {s} outside [0, 1]")
    return s


def reference_config_pairs(g: GeneralizedStrandDiagram) -> list:
    out = []
    run = Fraction(0)
    for idx, (kind, w) in enumerate(g.forest.pairs(), start=1):
        left = idx + run
        if kind == SPLIT:
            run += w
        elif kind == MERGE:
            run += 1 - w
        out.append((kind, w, left, idx + run))
    return out


def reference_is_in_df(t) -> bool:
    t = reference_require_cf(t)
    if t[0] != 1:
        return False
    gaps = [b - a for a, b in zip(t, t[1:])]
    for i, gap in enumerate(gaps):
        if gap > 1:
            return False
        if gap < 1 and ((i > 0 and gaps[i - 1] != 1)
                        or (i + 1 < len(gaps) and gaps[i + 1] != 1)):
            return False
    return True


def reference_df_section(t) -> GeneralizedStrandDiagram:
    t = reference_canonicalize_cf(t)
    if not reference_is_in_df(t):
        raise DomainError(f"{' '.join(map(str, t))} is not in the image of the complex")
    comps: list = []
    k = 0
    while k < len(t):
        if k + 1 < len(t) and t[k + 1] - t[k] < 1:
            comps.append((SPLIT, t[k + 1] - t[k]))
            k += 2
        else:
            comps.append(EDGE)
            k += 1
    comb = SliceWord(1, tuple((SPLIT, i) for i in range(1, len(comps))))
    return GeneralizedStrandDiagram(from_slices(comb), weighted_forest(*comps))


def reference_retract(t) -> tuple[Fraction, ...]:
    t = reference_require_cf(t)
    out = [Fraction(1)]
    for a, b in zip(t, t[1:]):
        out.append(out[-1] + min(2 * (b - a), Fraction(1)))
    return tuple(out)


def reference_retract_path(t, s) -> tuple[Fraction, ...]:
    t = reference_require_cf(t)
    s = _reference_time(s)
    if s <= Fraction(1, 3):
        return tuple((1 + 3 * s) * x for x in t)
    scaled = tuple(2 * x for x in t)
    if s <= Fraction(2, 3):
        shift = (3 * s - 1) * (1 - scaled[0])
        return tuple(x + shift for x in scaled)
    translated = tuple(x + 1 - scaled[0] for x in scaled)
    u = 3 * s - 2
    return tuple((1 - u) * a + u * b for a, b in zip(translated, reference_retract(t)))
