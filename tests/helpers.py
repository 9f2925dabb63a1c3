"""Seeded generators and independent oracles shared by the test suite.

Everything here is deliberately separate from the library: the oracles
re-derive expected behaviour by brute force (commutation closure,
structural fingerprints, direct formula evaluation) so that library
bugs cannot hide behind themselves.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fstrands.diagrams import (
    MERGE,
    SPLIT,
    Event,
    SliceWord,
    StrandDiagram,
    from_slices,
    multiply,
)
from fstrands.cubes import ComplexVertex, cube_from_forest
from fstrands.errors import InvariantViolation
from fstrands.forests import (
    EDGE,
    ElementaryForest,
    GeneralizedStrandDiagram,
    WeightedElementaryForest,
)
from fstrands.thompson import X0, X1, FElement, Tree, TreePair, diagram_tree, f_inv, f_mul


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
    down = d._down
    names: dict[int, int] = {}
    out: list[tuple] = []
    queue: list[tuple] = [("top", k) for k in range(d.m)]
    qi = 0
    while qi < len(queue):
        src = queue[qi]
        qi += 1
        dst = down[src]
        v = dst[0]
        if isinstance(v, int):
            if v not in names:
                names[v] = len(names)
                if d._kind[v] == SPLIT:
                    queue.append((v, 0))
                    queue.append((v, 1))
                else:
                    queue.append((v, 0))
            dkey = f"{d._kind[v]}{names[v]}.{dst[1]}"
        else:
            dkey = f"bot{dst[1]}"
        if isinstance(src[0], int):
            skey = f"{d._kind[src[0]]}{names[src[0]]}.{src[1]}"
        else:
            skey = f"top{src[1]}"
        out.append((skey, dkey))
    return (d.m, d.n, tuple(sorted(out)))


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
    return TreePair(diagram_tree(tree_part), complete_tree(rounds))


def left_fold_from_word(letters: str) -> FElement:
    """Reference word product: one group multiply per letter, left to right.

    Quadratic in the word length, so use it on short words only.
    """
    gens = {"a": X0, "A": f_inv(X0), "b": X1, "B": f_inv(X1)}
    out = FElement.identity()
    for ch in letters:
        out = f_mul(out, gens[ch])
    return out


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


def reference_cubes_at(v: ComplexVertex, max_dim: int):
    """Reference cube listing: the full enumeration filtered by caret count,
    with repeated cubes dropped."""
    seen = set()
    for forest in reference_elementary_forests_at(v.n):
        if forest.caret_count > max_dim:
            continue
        cube = cube_from_forest(v, forest)
        key = (cube.top.label(), cube.splits.components)
        if key not in seen:
            seen.add(key)
            yield cube


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
