"""Local geometry of the cube complex of split chains on (1,n) diagrams.

Vertices are reduced (1,n) diagrams; x <= y when y is obtained from x by
splitting.  A cube is stored canonically as a top vertex plus the
split-only elementary forest leading to its bottom vertex; weighting the
splits parameterizes the cube's points by generalized strand diagrams.
The group of (1,1) diagrams acts on everything by left multiplication,
which changes only the base.  A point's orbit key, read off its weighted
forest alone, is the cell (n, K, w) of the quotient X/F holding it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence, Union

from .diagrams import (
    _FLIP,
    _SINKS,
    _SOURCES,
    EDGE,
    MERGE,
    SPLIT,
    StrandDiagram,
    canonical_encoding,
    identity,
    invert,
    multiply,
    multiply_row,
    reduce,
)
from .errors import DomainError
from .forests import (
    ElementaryForest,
    GeneralizedStrandDiagram,
    WeightedElementaryForest,
    _generalized,
    _one_caret,
    canonicalize_generalized,
)
from .thompson import FElement, common_refinement, diagram_tree, tree_diagram

@dataclass(frozen=True)
class ComplexVertex:
    """A reduced (1,n) strand diagram."""

    diagram: StrandDiagram
    #: The label, encoded on first use: cubes share tops, so it is read often.
    _label: Optional[str] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.diagram.m != 1:
            raise DomainError(f"vertices have one source, got {self.diagram.m}")
        object.__setattr__(self, "diagram", reduce(self.diagram))

    @property
    def n(self) -> int:
        return self.diagram.n

    def label(self) -> str:
        if self._label is None:
            object.__setattr__(self, "_label", canonical_encoding(self.diagram))
        return self._label

    def __repr__(self) -> str:
        return f"ComplexVertex({self.label()})"


def trivial_vertex() -> ComplexVertex:
    return ComplexVertex(identity(1))


def leq(x: ComplexVertex, y: ComplexVertex) -> bool:
    """x <= y iff y is obtained from x by splitting (the residual has no merges)."""
    residual = multiply(invert(x.diagram), y.diagram)
    return residual.merge_count == 0


def upper_bound(x: ComplexVertex, y: ComplexVertex) -> ComplexVertex:
    """A common refinement above both vertices.

    Each vertex lies below its split tree (:func:`diagram_tree`, read in
    one walk), and the leafwise common refinement of the two trees bounds
    both.
    """
    joined = common_refinement(diagram_tree(x.diagram), diagram_tree(y.diagram))
    return ComplexVertex(tree_diagram(joined))


def _component_rows(n: int, budget: int) -> Iterator[tuple[str, ...]]:
    """Component rows on n strands with at most ``budget`` carets, in the
    order of the full enumeration: merge patterns in lexicographic order,
    a non-merge before a merge; within a pattern the other components
    count in binary, first component lowest, E as 0 and S as 1.  Patterns
    come off an explicit stack that stops placing merges once the budget
    is spent, and the count skips every row with too many splits."""
    stack = [((EDGE,) * n, -1, 0)] if budget >= 0 else []
    while stack:
        row, j, merges = stack.pop()
        if j >= 0:  # this entry merges components j and j+1 of ``row``
            row = row[:j] + (MERGE,) + row[j + 2:]
            merges += 1
        if merges < budget:  # later patterns: next merge right of j, rightmost first
            stack.extend((row, k, merges) for k in range(j + 1, len(row) - 1))
        slots = [k for k, c in enumerate(row) if c == EDGE]
        buf, spare = list(row), budget - merges
        while True:
            yield tuple(buf)
            for k in slots:  # the next count that fits the budget
                if buf[k] == SPLIT:
                    buf[k] = EDGE
                    spare += 1
                elif spare:
                    buf[k] = SPLIT
                    spare -= 1
                    break
            else:
                break


def elementary_forests_at(n: int) -> Iterator[ElementaryForest]:
    """All elementary forests with source count n, each exactly once: first
    component fastest, E before S, rows that start with a merge last.
    Iterative, so n may exceed Python's recursion limit."""
    if n < 1:
        raise DomainError(f"strand count must be >= 1, got {n}")
    yield from map(ElementaryForest, _component_rows(n, n))


@dataclass(frozen=True)
class Cube:
    """A cube in canonical form: top vertex plus split-only forest."""

    top: ComplexVertex
    splits: ElementaryForest
    #: The number of splits, counted once.
    dimension: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        comps = self.splits.components
        if MERGE in comps:
            raise DomainError("cube forests contain only edges and splits")
        if len(comps) != self.top.n:  # edges and splits take one strand each
            raise DomainError(
                f"forest has {self.splits.sources} sources but top has {self.top.n} sinks"
            )
        object.__setattr__(self, "dimension", comps.count(SPLIT))

    def bottom(self) -> ComplexVertex:
        return ComplexVertex(multiply_row(self.top.diagram, self.splits.components))

    def corner(self, eps: Sequence[int]) -> ComplexVertex:
        """The corner selected by applying the splits flagged in ``eps``;
        with no flag set it is ``top`` itself."""
        if len(eps) != self.dimension:
            raise DomainError(f"need {self.dimension} flags, got {len(eps)}")
        if not any(eps):
            return self.top
        comps = []
        k = 0
        for c in self.splits.components:
            if c == SPLIT:
                comps.append(SPLIT if eps[k] else EDGE)
                k += 1
            else:
                comps.append(c)
        return ComplexVertex(multiply_row(self.top.diagram, comps))

    def corners(self) -> Iterator[tuple[tuple[int, ...], ComplexVertex]]:
        for eps in product((0, 1), repeat=self.dimension):
            yield eps, self.corner(eps)


def _cube(v: ComplexVertex, row: tuple[str, ...], tops: dict) -> Cube:
    """:func:`cube_from_forest` on a component row; ``tops`` keeps the top
    vertex of each merge pattern, so each is built once.  A split-only
    row has the caret-free pattern, whose top holds ``v``'s own diagram."""
    merges = tuple(EDGE if c == SPLIT else c for c in row)
    top = tops.get(merges)
    if top is None:
        top = tops[merges] = ComplexVertex(multiply_row(v.diagram, merges))
    splits = tuple(SPLIT if c != EDGE else EDGE for c in row)
    return Cube(top, ElementaryForest(splits))


def cube_from_forest(v: ComplexVertex, forest: ElementaryForest) -> Cube:
    """The canonical cube spanned at ``v`` by an elementary multiplication.

    Its top vertex applies only the merges of the forest; each caret,
    split or merge, then contributes one split of the canonical forest.
    """
    return _cube(v, forest.components, {})


def cubes_at(v: ComplexVertex, max_dim: int) -> Iterator[Cube]:
    """Each cube incident to ``v`` via a forest with at most max_dim carets.

    Visits only those O(n^max_dim) forests, in the order of
    :func:`elementary_forests_at`, and builds each top vertex once.
    Distinct forests span distinct cubes (``v`` cancels on the left)."""
    tops: dict = {}
    for row in _component_rows(v.n, max_dim):
        yield _cube(v, row, tops)


def parameterize(cube: Cube, base: ComplexVertex,
                 coords: Sequence[Union[Fraction, int, str]]) -> GeneralizedStrandDiagram:
    """The canonical point of ``cube`` with the given coordinates seen
    from the corner ``base`` (which maps to all-zero coordinates).

    A corner is the top followed by the row of its flagged splits, and
    the top cancels on the left, so the residual ``top^-1 * base`` of a
    corner is that row: its split pairs at the bottom are the flags.
    Only the corner they select is built, to check it is ``base``."""
    d = cube.dimension
    ws = [Fraction(c) for c in coords]
    if len(ws) != d:
        raise DomainError(f"cube has dimension {d}, got {len(ws)} coordinates")
    pairs = multiply(invert(cube.top.diagram), base.diagram).bottom_split_pairs()
    eps, kinds, weights = [], [], []
    pos = 1  # the residual's sink under the current component
    for c in cube.splits.components:
        w = None
        if c == SPLIT:
            flag = int(pos in pairs)
            c, w = (MERGE if flag else SPLIT), ws[len(eps)]
            eps.append(flag)
            pos += flag  # a flagged split leaves two sinks
        kinds.append(c)
        weights.append(w)
        pos += 1
    if cube.corner(eps) != base:
        raise DomainError("base vertex is not a corner of the cube")
    # the weights are the caller's, so the public constructor checks them
    g = GeneralizedStrandDiagram(base.diagram, WeightedElementaryForest(kinds, weights))
    return canonicalize_generalized(g)


@dataclass(frozen=True)
class OrbitKey:
    """The cell (n, K, w) of X/F: an edge or a split of weight w in (0, 1)
    per strand of the top corner of a point's cube, so n is the number of
    components and K the positions of the splits."""

    components: tuple[Union[str, tuple[str, Fraction]], ...]

    @property
    def n(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        bits = [c if isinstance(c, str) else f"{c[0]}{c[1]}" for c in self.components]
        return f"{self.n}|" + ".".join(bits)


def orbit_key(p: GeneralizedStrandDiagram) -> OrbitKey:
    """The cell of ``p`` in X/F, read off its weighted forest alone: an
    edge or a caret of weight 0 gives its source edges, a caret of weight
    1 its sink edges, a split of weight w a split, and a merge of weight w
    a split of weight 1 - w seen from the top corner.  No move of
    :func:`canonicalize_generalized` changes it, and the left action
    changes only the base."""
    comps: list[Union[str, tuple[str, Fraction]]] = []
    for k, w in p.forest.pairs():
        if k == EDGE or w in (0, 1):
            comps += [EDGE] * (_SINKS if w == 1 else _SOURCES)[k]
        else:
            comps.append((SPLIT, w if k == SPLIT else 1 - w))
    return OrbitKey(tuple(comps))


def left_act(g: FElement, p: GeneralizedStrandDiagram) -> GeneralizedStrandDiagram:
    """Left multiplication of the base by a (1,1) diagram class."""
    return _generalized(multiply(g.rep, p.base), p.forest.kinds, p.forest.weights)


@dataclass
class BallGraph:
    """The 1-skeleton near a vertex: labelled vertices and oriented edges.

    Edges run (coarser, finer): the second vertex refines the first by a
    single split.  In quotient mode labels are orbit-key strings, and
    ``by_label`` holds the root only.
    """

    root: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    by_label: dict = field(default_factory=dict)


def _vertex_neighbors(x: ComplexVertex) -> Iterator[tuple[str, ComplexVertex]]:
    n = x.n
    for i in range(1, n + 1):
        yield "up", ComplexVertex(multiply_row(x.diagram, _one_caret(n, SPLIT, i)))
    for i in range(1, n):
        yield "down", ComplexVertex(multiply_row(x.diagram, _one_caret(n, MERGE, i)))


#: Default bound on the vertices ``ball`` visits and the rows ``fstrands
#: forests`` and ``fstrands cubes`` list.
CAP = 100_000


def forest_count(n: int, max_carets: int) -> int:
    """How many forests on n strands have at most ``max_carets`` >= 0 carets.

    The count is exact up to ``CAP``; past it, counting stops at the first
    strand count whose total passes ``CAP``.  It uses c(n, k) = c(n-1, k)
    + c(n-1, k-1) + c(n-2, k-1) for k carets (an edge or split takes one
    strand, a merge two), c(0, k) = [k == 0].  At most b =
    ``CAP.bit_length()`` carets are counted: b strands with up to b carets
    already carry 2**b > CAP split-only forests.
    """
    d = min(max_carets, n, CAP.bit_length())
    two, one = [0] * (d + 1), [1] + [0] * d  # c(left-2, .) and c(left-1, .)
    for _ in range(n):
        two, one = one, [one[0]] + [one[k] + one[k - 1] + two[k - 1] for k in range(1, d + 1)]
        if sum(one) > CAP:
            break
    return sum(one)


def ball(v: ComplexVertex, radius: int, quotient: bool = False,
         cap: int = CAP) -> BallGraph:
    """Breadth-first closure of single-caret moves out to ``radius``, refused
    past ``max(cap, 1)`` vertices.  The quotient ball is the path on strand
    counts (F is transitive on each), refused past ``CAP`` label strands."""
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    if quotient:
        lo, hi = max(1, v.n - radius), v.n + radius
        if hi - lo + 1 > max(cap, 1):
            raise DomainError(f"ball exceeded the vertex cap ({cap})")
        if (lo + hi) * (hi - lo + 1) // 2 > CAP:  # the labels spell lo + ... + hi strands
            raise DomainError(f"quotient ball labels of more than {CAP} strands")
        names = [str(OrbitKey((EDGE,) * c)) for c in range(lo, hi + 1)]
        root = names[v.n - lo]
        return BallGraph(root, tuple(sorted(names)), tuple(sorted(zip(names, names[1:]))),
                         {root: v})
    start = v.label()
    by_label: dict[str, ComplexVertex] = {start: v}
    dist = {start: 0}
    edges: set[tuple[str, str]] = set()
    queue = deque([(start, v)])
    while queue:
        nx, x = queue.popleft()
        dx = dist[nx]
        if dx == radius:
            continue
        for direction, y in _vertex_neighbors(x):
            ny = y.label()
            edges.add((nx, ny) if direction == "up" else (ny, nx))
            if ny not in dist:
                if len(dist) >= cap:
                    raise DomainError(f"ball exceeded the vertex cap ({cap})")
                dist[ny] = dx + 1
                by_label[ny] = y
                queue.append((ny, y))
    return BallGraph(
        root=start,
        vertices=tuple(sorted(dist)),
        edges=tuple(sorted(edges)),
        by_label=by_label,
    )


Move = Union[ElementaryForest, tuple[int, ElementaryForest]]


def holonomy(moves: Iterable[Move]) -> FElement:
    """The (1,1) element carried by a loop of elementary moves.

    Each move multiplies by an elementary forest diagram, or by its
    reflection when given as (-1, forest).  The sequence must start and
    end at strand count 1.
    """
    acc = identity(1)
    for k, move in enumerate(moves):
        if isinstance(move, ElementaryForest):
            sign, forest = 1, move
        else:
            sign, forest = move
        row, need = forest.components, forest.sources
        if sign < 0:  # the reflected row: splits and merges trade places
            row = tuple(_FLIP[c] for c in row)
            need = forest.sinks
        if acc.n != need:
            raise DomainError(
                f"move {k + 1} expects {need} strands but {acc.n} are present"
            )
        acc = multiply_row(acc, row)
    if acc.n != 1:
        raise DomainError(f"move sequence ends on {acc.n} strands, not 1")
    return FElement(acc)
