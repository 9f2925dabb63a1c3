"""Vertices, cubes, parameterization, orbit keys, balls, and holonomy."""

import sys
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import comb

import pytest

from fstrands import cubes, diagrams, forests
from fstrands.cubes import (
    CAP,
    ComplexVertex,
    Cube,
    OrbitKey,
    ball,
    cube_from_forest,
    cubes_at,
    elementary_forests_at,
    forest_count,
    holonomy,
    left_act,
    leq,
    orbit_key,
    parameterize,
    trivial_vertex,
    upper_bound,
)
from fstrands.diagrams import (
    M,
    S,
    SliceWord,
    encode_word,
    from_slices,
    multiply,
    multiply_row,
)
from fstrands.errors import DomainError
from fstrands.forests import (
    EDGE,
    ElementaryForest,
    GeneralizedStrandDiagram,
    canonicalize_generalized,
    random_gmove,
)
from fstrands.thompson import (
    X0,
    X1,
    diagram_to_tree_pair,
    from_word,
    pl_eq,
    to_pl,
    tree_diagram,
    tree_splits,
)

from helpers import (
    caret_count,
    forests_by_carets,
    random_elementary_forest,
    random_f_word,
    random_generalized,
    random_rational,
    random_vertex_diagram,
    reference_cubes_at,
    reference_elementary_forests_at,
    reference_orbit_key,
    reference_parameterize,
    reference_quotient_ball,
    rng,
    row_slice_word,
)

L = ()


def vtx(*events):
    return ComplexVertex(from_slices(SliceWord(1, tuple(events))))


def _tables(d):
    return d._kind, d._down, d._up, d._bot, d._slots, d._reduced


def _row_product(d, row):
    """``d`` times the diagram of ``row``, through ``multiply``."""
    return multiply(d, from_slices(row_slice_word(row)))


def _reference_neighbors(x):
    n = x.n
    for i in range(1, n + 1):
        yield "up", ComplexVertex(multiply(x.diagram, from_slices(SliceWord(n, (S(i),)))))
    for i in range(1, n):
        yield "down", ComplexVertex(multiply(x.diagram, from_slices(SliceWord(n, (M(i),)))))


def _seeded_vertices(seed, count):
    """Tree and non-tree vertices with at most 9 sinks, alternating."""
    r = rng(seed)
    out = []
    while len(out) < count:
        if len(out) % 2 == 0:
            out.append(vtx(*(S(r.randint(1, k)) for k in range(1, r.randint(1, 9)))))
            continue
        v = ComplexVertex(random_vertex_diagram(r, 12))
        if v.n <= 9 and v.diagram.merge_count:
            out.append(v)
    return out


class TestLeq:
    def test_reflexive(self):
        for seed in range(20):
            x = ComplexVertex(random_vertex_diagram(rng(seed)))
            assert leq(x, x)

    def test_trivial_below_split(self):
        assert leq(trivial_vertex(), vtx(S(1)))
        assert not leq(vtx(S(1)), trivial_vertex())

    def test_proper_splitting_is_oneway(self):
        r = rng(4)
        for _ in range(25):
            x = ComplexVertex(random_vertex_diagram(r))
            forest = random_elementary_forest(r, x.n, kinds="ES")
            if caret_count(forest) == 0:
                continue
            y = ComplexVertex(multiply_row(x.diagram, forest.components))
            assert leq(x, y)
            assert not leq(y, x)

    def test_antisymmetry_and_transitivity(self):
        r = rng(40)
        vs = [ComplexVertex(random_vertex_diagram(r, 6)) for _ in range(12)]
        for a in vs:
            for b in vs:
                if leq(a, b) and leq(b, a):
                    assert a == b
                for c in vs:
                    if leq(a, b) and leq(b, c):
                        assert leq(a, c)


class TestUpperBound:
    def test_merge_free_vertex_bounds_itself(self):
        x = vtx(S(1), S(2))
        assert upper_bound(x, x) == x

    def test_left_right_combs_join_to_balanced(self):
        left = ComplexVertex(tree_diagram(((L, L), L)))
        right = ComplexVertex(tree_diagram((L, (L, L))))
        z = upper_bound(left, right)
        assert z == ComplexVertex(tree_diagram(((L, L), (L, L))))
        assert leq(left, z) and leq(right, z)

    @pytest.mark.parametrize("seed", range(40))
    def test_bounds_both_inputs(self, seed):
        r = rng(seed)
        x = ComplexVertex(random_vertex_diagram(r, 8))
        y = ComplexVertex(random_vertex_diagram(r, 8))
        z = upper_bound(x, y)
        assert leq(x, z) and leq(y, z)

    def test_right_comb_deeper_than_the_recursion_limit(self):
        n = 1500
        assert n > sys.getrecursionlimit()
        comb = vtx(*(S(i) for i in range(1, n)))
        split = vtx(S(1))
        z = upper_bound(comb, split)
        assert z.n == n
        assert leq(comb, z) and leq(split, z)


class TestForestEnumeration:
    def test_counts_small(self):
        assert sorted(f.components for f in elementary_forests_at(1)) == [
            ("E",),
            ("S",),
        ]
        n2 = {f.components for f in elementary_forests_at(2)}
        assert n2 == {("E", "E"), ("E", "S"), ("S", "E"), ("S", "S"), ("M",)}

    def test_recurrence(self):
        counts = [1] + [sum(1 for _ in elementary_forests_at(n)) for n in range(1, 11)]
        for n in range(2, 11):
            assert counts[n] == 2 * counts[n - 1] + counts[n - 2]
        assert counts[:6] == [1, 2, 5, 12, 29, 70]

    def test_no_duplicates(self):
        for n in (3, 5):
            forests = [f.components for f in elementary_forests_at(n)]
            assert len(forests) == len(set(forests))

    def test_split_only_count_is_power_of_two(self):
        for n in (1, 4, 6):
            count = sum(
                1 for f in elementary_forests_at(n) if "M" not in f.components
            )
            assert count == 2 ** n

    def test_order_matches_the_recursive_reference(self):
        for n in range(1, 11):
            assert [f.components for f in elementary_forests_at(n)] == [
                f.components for f in reference_elementary_forests_at(n)
            ]

    def test_deeper_than_the_recursion_limit(self):
        n = 5000
        assert n > sys.getrecursionlimit()
        assert next(iter(elementary_forests_at(n))).components == (EDGE,) * n

    def test_forest_count_matches_the_caret_census(self):
        for n in range(13):
            census = forests_by_carets(n, n)
            for d in range(n + 3):
                assert forest_count(n, d) == sum(census[:d + 1])

    def test_forest_count_stops_past_the_cap(self, monkeypatch):
        # the 40-leaf comb's cubes number 1746860020068409 in all
        assert cubes.CAP < forest_count(40, 40) <= 3 * cubes.CAP
        assert forest_count(10 ** 9, 1) <= 2 * cubes.CAP + 2
        monkeypatch.setattr(cubes, "CAP", 100)
        assert forest_count(10, 10) == 169  # stopped at 6 strands


class TestCubes:
    def test_trivial_vertex_cubes(self):
        cubes = list(cubes_at(trivial_vertex(), 1))
        assert len(cubes) == 2
        dims = sorted(c.dimension for c in cubes)
        assert dims == [0, 1]

    def test_cube_counts_at_comb_vertices(self):
        # a d-cube orbit (n', K) has C(d, j) corners with n' + j strands, so
        # a vertex with n strands lies in sum_j C(d, j) C(n - j, d) d-cubes
        for n in range(1, 9):
            v = vtx(*(S(i) for i in range(1, n)))
            found = Counter(cube.dimension for cube in cubes_at(v, 4))
            for d in range(5):
                assert found[d] == sum(comb(d, j) * comb(n - j, d)
                                       for j in range(min(d, n) + 1)), (n, d)

    def test_dimension_matches_caret_count(self):
        v = vtx(S(1))
        for cube in cubes_at(v, 2):
            assert cube.dimension == caret_count(cube.splits)

    def test_merge_forest_cube_has_coarser_top(self):
        v = vtx(S(1))
        cube = cube_from_forest(v, ElementaryForest(("M",)))
        assert cube.top == trivial_vertex()
        assert cube.splits == ElementaryForest(("S",))
        assert cube.bottom() == v

    def test_corners_sandwiched_between_top_and_bottom(self):
        r = rng(8)
        for _ in range(20):
            v = ComplexVertex(random_vertex_diagram(r, 6))
            forest = random_elementary_forest(r, v.n)
            cube = cube_from_forest(v, forest)
            for _eps, corner in cube.corners():
                assert leq(cube.top, corner)
                assert leq(corner, cube.bottom())

    @pytest.mark.parametrize("comps", [(), ("E",), ("S", "S", "E"), ("M", "M")])
    def test_cube_from_forest_rejects_wrong_arity(self, comps):
        with pytest.raises(DomainError, match="2 sinks"):
            cube_from_forest(vtx(S(1)), ElementaryForest(comps))

    def test_cube_rejects_merge_components(self):
        with pytest.raises(DomainError):
            Cube(trivial_vertex(), ElementaryForest(("M",)))

    @pytest.mark.parametrize("seed", range(10))
    def test_order_matches_the_filtered_reference(self, seed):
        r = rng(seed)
        tree = vtx(*(S(r.randint(1, k)) for k in range(1, r.randint(1, 9))))
        other = ComplexVertex(random_vertex_diagram(r, 12))
        while other.n > 9 or other.diagram.merge_count == 0:
            other = ComplexVertex(random_vertex_diagram(r, 12))
        for v in (tree, other):
            for d in range(4):
                assert [(c.top.label(), c.splits.components) for c in cubes_at(v, d)] == [
                    (c.top.label(), c.splits.components) for c in reference_cubes_at(v, d)
                ]

    def test_forty_strand_tree_has_one_cube_per_forest(self):
        # a tree vertex on 40 strands has about 10**15 forests, but only
        # those with at most two carets are visited
        r = rng(40)
        v = vtx(*(S(r.randint(1, k)) for k in range(1, 40)))
        assert v.n == 40
        found = [0, 0, 0]
        keys = set()
        for cube in cubes_at(v, 2):
            found[cube.dimension] += 1
            keys.add((cube.top.label(), cube.splits.components))
        assert found == forests_by_carets(40, 2)
        assert len(keys) == sum(found)

    def test_right_comb_deeper_than_the_recursion_limit(self):
        n = 1500
        assert n > sys.getrecursionlimit()
        v = vtx(*(S(i) for i in range(1, n)))
        first = list(islice(cubes_at(v, 1), 3))
        assert [c.top for c in first] == [v, v, v]
        assert [c.splits.components[:3] for c in first] == [
            (EDGE, EDGE, EDGE), ("S", EDGE, EDGE), (EDGE, "S", EDGE)
        ]


class TestCaretRowsMatchMultiply:
    """Cube tops, corners and bottoms and ball neighbours stack caret rows
    onto the vertex's tables; the products equal those of ``multiply``,
    and no caret-row consumer calls it."""

    @pytest.mark.parametrize("seed", range(3))
    def test_cube_tops_and_corners(self, seed):
        for v in _seeded_vertices(8900 + seed, 4):
            rows = [f.components for f in reference_elementary_forests_at(v.n)
                    if caret_count(f) <= 3]
            for cube, ref, row in zip(cubes_at(v, 3), reference_cubes_at(v, 3), rows,
                                      strict=True):
                assert (cube.top.label(), cube.splits) == (ref.top.label(), ref.splits)
                merges = [EDGE if c == "S" else c for c in row]
                assert _tables(cube.top.diagram) == _tables(_row_product(v.diagram, merges))
                if "M" not in row:  # a caret-free row hands back the vertex's diagram
                    assert cube.top.diagram is v.diagram
                assert cube.corner((0,) * cube.dimension) is cube.top
                for eps, corner in cube.corners():
                    flags = iter(eps)
                    comps = [("S" if next(flags) else EDGE) if c == "S" else c
                             for c in cube.splits.components]
                    want = _row_product(cube.top.diagram, comps)
                    assert _tables(corner.diagram) == _tables(want)
                    # the label is encoded on the first call and kept
                    label = corner.label()
                    assert label == encode_word(corner.diagram.to_slices())
                    assert corner.label() == label == ComplexVertex(want).label()
                assert _tables(cube.bottom().diagram) == _tables(
                    _row_product(cube.top.diagram, cube.splits.components))

    def test_ball_matches_the_multiply_ball(self, monkeypatch):
        r = rng(8950)
        starts = [trivial_vertex(), vtx(S(1))]
        while len(starts) < 4:
            v = ComplexVertex(random_vertex_diagram(r, 8))
            if v.n == len(starts) - 1 and v.diagram.merge_count:
                starts.append(v)
        got = [ball(v, 3) for v in starts]
        monkeypatch.setattr(cubes, "_vertex_neighbors", _reference_neighbors)
        want = [ball(v, 3) for v in starts]
        for g, w in zip(got, want, strict=True):
            assert (g.root, g.vertices, g.edges) == (w.root, w.vertices, w.edges)
            assert all(_tables(g.by_label[k].diagram) == _tables(w.by_label[k].diagram)
                       for k in g.by_label)
        # the quotient ball is read off strand counts, so it is checked
        # against the search, refusals at the vertex cap included; labels
        # from 10 strands on sort before those of 2 to 9
        for v in starts + [vtx(*[S(1)] * 6)]:
            for radius in range(5):
                size = len(reference_quotient_ball(v, radius, CAP)[1])
                for cap in (0, 1, size - 1, size):
                    try:
                        want = reference_quotient_ball(v, radius, cap)
                    except DomainError:
                        with pytest.raises(DomainError, match="cap"):
                            ball(v, radius, quotient=True, cap=cap)
                        continue
                    g = ball(v, radius, quotient=True, cap=cap)
                    assert (g.root, g.vertices, g.edges) == want
                    assert g.by_label == {g.root: v}

    def test_caret_row_consumers_never_multiply(self, monkeypatch):
        calls = []
        real = diagrams.multiply

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        vertices = _seeded_vertices(8960, 6)
        r04, r07 = rng(104), rng(107)  # drawn as acceptance 04 and 07 draw them
        points = ([random_generalized(r04, max_carets=8) for _ in range(60)]
                  + [random_generalized(r07, max_carets=6) for _ in range(60)])
        for mod in (diagrams, forests, cubes):
            if hasattr(mod, "multiply"):
                monkeypatch.setattr(mod, "multiply", spy)
        for v in vertices:
            for cube in cubes_at(v, 3):
                list(cube.corners())
                cube.bottom()
        for q in (False, True):
            ball(vertices[0], 3, quotient=q)
            ball(vtx(S(1)), 3, quotient=q)
        for g in points:
            canonicalize_generalized(g)
            h = g
            for _ in range(5):
                h = random_gmove(h, r04)
                canonicalize_generalized(h)
        holonomy([ElementaryForest(("S",)), (-1, ElementaryForest(("S",)))])
        assert calls == []

    def test_dimension_is_counted_once(self):
        made = list(cubes_at(_seeded_vertices(8970, 1)[0], 2))
        for cube in made:
            assert cube.dimension == caret_count(cube.splits)
        with pytest.raises(AttributeError):
            made[0].dimension = 5


class TestParameterize:
    def test_zero_coords_give_base(self):
        cube = cube_from_forest(vtx(S(1)), ElementaryForest(("S", "E")))
        base = cube.corner((0,))
        p = parameterize(cube, base, (0,))
        assert p == GeneralizedStrandDiagram.vertex(base.diagram)

    def test_one_coords_give_opposite_corner(self):
        r = rng(5)
        for _ in range(15):
            v = ComplexVertex(random_vertex_diagram(r, 5))
            forest = random_elementary_forest(r, v.n)
            cube = cube_from_forest(v, forest)
            d = cube.dimension
            p = parameterize(cube, cube.top, (1,) * d)
            assert p == GeneralizedStrandDiagram.vertex(cube.bottom().diagram)

    def test_wrong_arity_rejected(self):
        cube = cube_from_forest(trivial_vertex(), ElementaryForest(("S",)))
        with pytest.raises(DomainError):
            parameterize(cube, cube.top, (Fraction(1, 2), Fraction(1, 2)))

    def test_non_corner_rejected(self):
        cube = cube_from_forest(trivial_vertex(), ElementaryForest(("S",)))
        outsider = vtx(S(1), S(1))
        with pytest.raises(DomainError, match="not a corner"):
            parameterize(cube, outsider, (Fraction(1, 2),))

    @pytest.mark.parametrize("coords", [(Fraction(3, 2),), (Fraction(-1, 2),)])
    def test_out_of_range_coordinate_rejected(self, coords):
        # the coordinates are the caller's, so they reach the checked constructor
        cube = cube_from_forest(trivial_vertex(), ElementaryForest(("S",)))
        for corner in (cube.top, cube.bottom()):
            with pytest.raises(DomainError, match=r"caret weight .* outside \[0, 1\]"):
                parameterize(cube, corner, coords)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_corner_search(self, seed):
        # from every corner of seeded cubes, against the 2^d corner search
        r = rng(9100 + seed)
        for v in _seeded_vertices(9100 + seed, 2):
            for cube in islice(cubes_at(v, 3), 0, None, 3):
                w = [random_rational(r, open_unit=True) for _ in range(cube.dimension)]
                for _eps, corner in cube.corners():
                    assert parameterize(cube, corner, w) == reference_parameterize(cube, corner, w)

    def test_non_corners_rejected_like_the_corner_search(self):
        # vertices near the top and left translates of the corners by x0;
        # a translate can be a corner (x0 takes a right comb to a left one)
        rejected = {"near": 0, "translate": 0}
        for v in _seeded_vertices(9200, 4):
            for cube in islice(cubes_at(v, 2), 0, None, 7):
                w = [Fraction(1, 3)] * cube.dimension
                near = ball(cube.top, 2).by_label.values()
                moved = [ComplexVertex(multiply(X0.rep, c.diagram)) for _, c in cube.corners()]
                for source, bases in (("near", near), ("translate", moved)):
                    for base in bases:
                        try:
                            want = reference_parameterize(cube, base, w)
                        except DomainError:
                            with pytest.raises(DomainError, match="not a corner"):
                                parameterize(cube, base, w)
                            rejected[source] += 1
                        else:
                            assert parameterize(cube, base, w) == want
        assert min(rejected.values()) > 0

    def test_builds_only_the_base_corner(self, monkeypatch):
        r = rng(9300)
        work = []
        for v in _seeded_vertices(9300, 4):
            for cube in islice(cubes_at(v, 3), 0, None, 9):
                work += [(cube, corner) for _, corner in cube.corners()]
        built = []
        real = Cube.corner

        def corner(self, eps):
            built.append(self)
            return real(self, eps)

        def corners(self):
            raise AssertionError("parameterize searched the corners")

        monkeypatch.setattr(Cube, "corner", corner)
        monkeypatch.setattr(Cube, "corners", corners)
        for cube, base in work:
            parameterize(cube, base, [random_rational(r, open_unit=True)
                                      for _ in range(cube.dimension)])
        assert built == [cube for cube, _ in work]

    @pytest.mark.parametrize("seed", range(50))
    def test_corner_independence(self, seed):
        # the same interior point parameterized from two corners agrees
        r = rng(seed)
        v = ComplexVertex(random_vertex_diagram(r, 5))
        forest = random_elementary_forest(r, v.n)
        cube = cube_from_forest(v, forest)
        d = cube.dimension
        if d == 0:
            return
        w = [random_rational(r, open_unit=True) for _ in range(d)]
        eps1 = tuple(r.randint(0, 1) for _ in range(d))
        eps2 = tuple(r.randint(0, 1) for _ in range(d))
        p1 = parameterize(
            cube, cube.corner(eps1), [x if not e else 1 - x for x, e in zip(w, eps1)]
        )
        p2 = parameterize(
            cube, cube.corner(eps2), [x if not e else 1 - x for x, e in zip(w, eps2)]
        )
        assert p1 == p2

    def test_facet_points_parameterize_consistently(self):
        # pinning one coordinate to 0/1 lands on a face of the cube, and the
        # face's own parameterization gives the same point
        r = rng(77)
        for _ in range(20):
            v = ComplexVertex(random_vertex_diagram(r, 4))
            forest = random_elementary_forest(r, v.n)
            cube = cube_from_forest(v, forest)
            d = cube.dimension
            if d < 2:
                continue
            w = [random_rational(r, open_unit=True) for _ in range(d)]
            pin = r.randrange(d)
            pinned_val = r.choice([Fraction(0), Fraction(1)])
            w[pin] = pinned_val
            whole = parameterize(cube, cube.top, w)
            # the face: drop the pinned split, absorbing it when pinned to 1
            face_eps = tuple(1 if k == pin and pinned_val == 1 else 0 for k in range(d))
            face_base = cube.corner(face_eps)
            k = 0
            face_comps = []
            for c in cube.splits.components:
                if c == "S":
                    if k == pin:
                        face_comps.extend(["E", "E"] if pinned_val == 1 else ["E"])
                    else:
                        face_comps.append("S")
                    k += 1
                else:
                    face_comps.append("E")
            face_cube = cube_from_forest(face_base, ElementaryForest(tuple(face_comps)))
            face_w = [x for k, x in enumerate(w) if k != pin]
            assert parameterize(face_cube, face_base, face_w) == whole


class TestOrbitKey:
    def test_vertices_share_key_by_sink_count(self):
        r = rng(31)
        keys = set()
        for _ in range(10):
            v = ComplexVertex(random_vertex_diagram(r, 6))
            keys.add((orbit_key(GeneralizedStrandDiagram.vertex(v.diagram)), v.n))
        assert all(key.n == n and set(key.components) <= {EDGE} for key, n in keys)
        assert len({key for key, _ in keys}) == len({n for _, n in keys})

    def test_sink_count_is_the_component_count(self):
        key = OrbitKey((EDGE, (diagrams.SPLIT, Fraction(1, 3)), EDGE))
        assert key.n == 3 and str(key) == "3|E.S1/3.E"
        assert str(OrbitKey((EDGE,) * 2)) == "2|E.E"

    @pytest.mark.parametrize("seed", range(40))
    def test_invariant_under_left_action(self, seed):
        r = rng(seed)
        from helpers import assert_as_if_checked, random_generalized

        p = random_generalized(r, max_carets=6)
        g = from_word(random_f_word(r, 6))
        q = left_act(g, p)
        assert_as_if_checked(q)
        assert orbit_key(q) == orbit_key(p)

    @pytest.mark.parametrize("seed", range(10))
    def test_forest_rule_matches_the_canonical_form(self, seed):
        # 300 representatives a seed whose forests carry weights 0 and 1,
        # each moved by 1 to 6 class moves, keyed against the canonical form
        r = rng(seed + 2100)
        boundary = 0
        for _ in range(300):
            p = random_generalized(r, max_carets=8, open_unit=False)
            for _ in range(r.randint(1, 6)):
                p = random_gmove(p, r)
            boundary += any(w in (0, 1) for w in p.forest.weights)
            assert orbit_key(p) == reference_orbit_key(p), p
        assert boundary >= 100

    def test_builds_no_diagram(self, monkeypatch):
        r = rng(2200)
        points = [random_gmove(random_generalized(r, max_carets=8, open_unit=False), r)
                  for _ in range(50)]
        keys = [reference_orbit_key(p) for p in points]

        def refuse(*args, **kwargs):
            raise AssertionError("orbit_key built or reduced a diagram")

        for module, name in ((cubes, "canonicalize_generalized"), (cubes, "multiply_row"),
                             (cubes, "reduce"), (diagrams, "multiply_row"),
                             (diagrams, "reduce"), (forests, "canonicalize_generalized")):
            monkeypatch.setattr(module, name, refuse)
        for cls in (GeneralizedStrandDiagram, forests.WeightedElementaryForest):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        assert [orbit_key(p) for p in points] == keys

    def test_distinct_interior_points_have_distinct_keys(self):
        cube = cube_from_forest(trivial_vertex(), ElementaryForest(("S",)))
        p1 = parameterize(cube, cube.top, (Fraction(1, 3),))
        p2 = parameterize(cube, cube.top, (Fraction(2, 3),))
        assert orbit_key(p1) != orbit_key(p2)

    @pytest.mark.parametrize("seed", range(25))
    def test_key_of_parameterized_point_ignores_translated_base(self, seed):
        # the same cube data hung off a translated vertex keys identically
        r = rng(seed + 600)
        v = ComplexVertex(random_vertex_diagram(r, 5))
        forest = random_elementary_forest(r, v.n)
        cube = cube_from_forest(v, forest)
        d = cube.dimension
        w = [random_rational(r, open_unit=True) for _ in range(d)]
        g = from_word(random_f_word(r, 6))
        moved = ComplexVertex(multiply(g.rep, v.diagram))
        moved_cube = cube_from_forest(moved, forest)
        p = parameterize(cube, cube.top, w)
        q = parameterize(moved_cube, moved_cube.top, w)
        assert orbit_key(p) == orbit_key(q)


class TestBall:
    def test_radius_zero(self):
        g = ball(trivial_vertex(), 0)
        assert len(g.vertices) == 1 and not g.edges

    def test_quotient_ball_radius_one(self):
        g = ball(trivial_vertex(), 1, quotient=True)
        assert len(g.vertices) == 2
        assert len(g.edges) == 1

    def test_plain_ball_radius_one(self):
        g = ball(trivial_vertex(), 1)
        assert len(g.vertices) == 2
        assert len(g.edges) == 1

    def test_edges_are_single_caret_leq_steps(self):
        g = ball(vtx(S(1)), 2, cap=5000)
        for lo_label, hi_label in g.edges:
            lo, hi = g.by_label[lo_label], g.by_label[hi_label]
            assert leq(lo, hi)
            assert hi.n == lo.n + 1

    def test_cap_trips(self):
        with pytest.raises(DomainError, match="cap"):
            ball(trivial_vertex(), 6, cap=30)

    def test_names_each_visit_once(self, monkeypatch):
        calls = []

        def spy(real):
            def counted(*args):
                calls.append(real.__name__)
                return real(*args)
            return counted

        for name in ("orbit_key", "multiply_row"):
            monkeypatch.setattr(cubes, name, spy(getattr(cubes, name)))
        g = ball(trivial_vertex(), 4, quotient=True)
        assert len(g.vertices) == 5
        # each vertex is named once from its strand count: none is built
        # or canonicalized
        assert calls == []


class TestHolonomy:
    def test_split_merge_back_is_identity(self):
        loop = [ElementaryForest(("S",)), ElementaryForest(("M",))]
        assert holonomy(loop).is_identity

    def test_signed_move_reverses(self):
        loop = [ElementaryForest(("S",)), (-1, ElementaryForest(("S",)))]
        assert holonomy(loop).is_identity

    @staticmethod
    def _tree_pair_loop(g):
        """Single-caret moves spelling out an element's tree pair."""
        pair = diagram_to_tree_pair(g)
        moves = []
        count = 1
        for _tag, i in tree_splits(pair.domain):
            moves.append(
                ElementaryForest(("E",) * (i - 1) + ("S",) + ("E",) * (count - i))
            )
            count += 1
        for _tag, i in reversed(tree_splits(pair.range)):
            moves.append(
                ElementaryForest(("E",) * (i - 1) + ("M",) + ("E",) * (count - i - 1))
            )
            count -= 1
        return moves

    def test_designed_generator_loops(self):
        for gen in (X0, X1):
            got = holonomy(self._tree_pair_loop(gen))
            assert got == gen
            assert pl_eq(to_pl(got), to_pl(gen))

    def test_two_loops_distinguished_by_oracle(self):
        loop_a = self._tree_pair_loop(X0)
        loop_b = self._tree_pair_loop(X0 * X0)
        assert holonomy(loop_a) != holonomy(loop_b)

    def test_reversed_sequence_inverts(self):
        r = rng(13)
        for _ in range(25):
            g = from_word(random_f_word(r, 6))
            loop = self._tree_pair_loop(g)
            reversed_loop = [(-1, f) for f in reversed(loop)]
            assert holonomy(reversed_loop) == ~g

    def test_arity_break_rejected(self):
        with pytest.raises(DomainError, match="move 2"):
            holonomy([ElementaryForest(("S",)), ElementaryForest(("S", "E", "E"))])

    def test_unclosed_sequence_rejected(self):
        with pytest.raises(DomainError, match="ends on"):
            holonomy([ElementaryForest(("S",))])
