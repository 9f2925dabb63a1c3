"""Group structure on (1,1) diagrams and the PL homeomorphism oracle."""

import re
import sys
from fractions import Fraction
from numbers import Rational

import pytest

from fstrands import cubes, diagrams, thompson
from fstrands.cubes import ComplexVertex, upper_bound
from fstrands.diagrams import M, S, SliceWord, StrandDiagram, encode_word, from_slices, reduce
from fstrands.errors import DomainError, InvariantViolation
from fstrands.thompson import (
    X0,
    X1,
    FElement,
    PLMap,
    TreePair,
    common_refinement,
    diagram_to_tree_pair,
    diagram_tree,
    from_word,
    merge_free_form,
    pl_compose,
    pl_eq,
    pl_eval,
    to_pl,
    tree_diagram,
    tree_pair_pl,
    tree_pair_to_diagram,
    tree_splits,
)

from helpers import (
    check_tables,
    full_round_tree_pair,
    left_fold_from_word,
    pl_inverse,
    random_diagram,
    random_f_word,
    random_vertex_diagram,
    reference_canonical_points,
    reference_is_reduced,
    reference_diagram_tree,
    reference_free_reduce,
    reference_pl_check,
    reference_pl_compose,
    reference_pl_eval,
    reference_tree_pair_pl,
    reference_merge_free_form,
    reference_tree_pair,
    rng,
    split_count,
)

L = ()
F = Fraction


def leaves(t) -> int:
    """The leaf count of a tree, from its iterative split events."""
    return len(tree_splits(t)) + 1


def random_tree(r, max_leaves=8, exact=None):
    def grow(n):
        if n == 1:
            return L
        k = r.randint(1, n - 1)
        return (grow(k), grow(n - k))

    return grow(exact if exact is not None else r.randint(1, max_leaves))


class TestTrees:
    def test_tree_splits_right_comb(self):
        comb = (L, (L, (L, L)))
        assert tree_splits(comb) == [("S", 1), ("S", 2), ("S", 3)]

    def test_diagram_tree_round_trip(self):
        r = rng(5)
        for _ in range(60):
            t = random_tree(r)
            assert diagram_tree(tree_diagram(t)) == t

    def test_common_refinement(self):
        left = ((L, L), L)
        right = (L, (L, L))
        assert common_refinement(left, right) == ((L, L), (L, L))
        assert common_refinement(left, left) == left

    def test_tree_pair_requires_equal_leaves(self):
        with pytest.raises(DomainError):
            TreePair(L, (L, L))

    def test_helpers_handle_combs_deeper_than_the_recursion_limit(self):
        n = 1500
        assert n > sys.getrecursionlimit()
        comb = L
        for _ in range(n - 1):
            comb = (L, comb)
        assert leaves(comb) == n
        splits = tree_splits(comb)
        assert splits == [("S", i) for i in range(1, n)]
        assert leaves(diagram_tree(tree_diagram(comb))) == n
        assert leaves(common_refinement(comb, (L, L))) == n


def assert_reduced_tables(g: FElement) -> None:
    """The carried tables agree with the wiring, and no vertex anchors a
    redex (scanned by ``reference_is_reduced``, not read off the flag)."""
    d = g.rep
    check_tables(d)
    assert reference_is_reduced(d.to_slices())


class TestGroupOps:
    def test_identity_behaviour(self):
        e = FElement.identity()
        assert e * X0 == X0
        assert X0 * e == X0
        assert ~e == e

    def test_inverse_cancels(self):
        assert X0 * ~X0 == FElement.identity()
        assert ~X1 * X1 == FElement.identity()

    def test_involution(self):
        r = rng(3)
        for _ in range(25):
            g = from_word(random_f_word(r))
            assert ~~g == g

    def test_generators_do_not_commute(self):
        assert X0 * X1 != X1 * X0
        assert not pl_eq(to_pl(X0 * X1), to_pl(X1 * X0))

    def test_from_word_empty_is_identity(self):
        assert from_word("").is_identity

    def test_from_word_cancellation(self):
        assert from_word("aA").is_identity
        assert from_word("Bb").is_identity

    def test_defining_relators_vanish(self):
        # commutators [x0 x1^-1, x0^-1 x1 x0] and [x0 x1^-1, x0^-2 x1 x0^2]
        def comm(u, v):
            return u + v + u.swapcase()[::-1] + v.swapcase()[::-1]

        r1 = comm("aB", "Aba")
        r2 = comm("aB", "AAbaa")
        for w in (r1, r2):
            assert from_word(w).is_identity
            assert pl_eq(to_pl(from_word(w)), PLMap.identity())

    def test_rejects_unknown_letter(self):
        with pytest.raises(DomainError):
            from_word("axb")

    def test_from_word_matches_left_fold_reference(self):
        r = rng(5)
        for k in range(300):
            w = random_f_word(r, 40)
            g = from_word(w)
            assert g == left_fold_from_word(w), w
            # the concatenated letter words, reduced from every vertex
            events = tuple(e for ch in w for e in from_word(ch).rep.to_slices().events)
            assert encode_word(g.rep.to_slices()) == encode_word(
                reduce(from_slices(SliceWord(1, events))).to_slices())
            assert_reduced_tables(g)
            spaced = " ".join(w) if k % 2 else "\n".join(w)
            assert from_word(spaced) == g and from_word(iter(w)) == g

    def test_from_word_skips_whitespace_and_takes_iterables(self):
        assert from_word(" a B\nA ") == from_word("aBA")
        assert from_word(iter("aBA")) == from_word("aBA")

    def test_long_power_of_x0_reduces_in_one_pass(self):
        g = from_word("a" * 1000)
        assert g.rep.vertex_count == 2002
        assert g == X0 ** 1000

    @pytest.mark.parametrize("k", [*range(-5, 6), 50, -50])
    def test_power_matches_repeated_product(self, k):
        r = rng(40 + k)
        for g in [FElement.identity(), X0, X1] + [from_word(random_f_word(r, 10)) for _ in range(10)]:
            step = g if k >= 0 else ~g
            expected = FElement.identity()
            for _ in range(abs(k)):
                expected = expected * step
            p = g ** k
            assert p == expected
            assert_reduced_tables(p)


class TestTreePairs:
    def test_identity_pair(self):
        assert diagram_to_tree_pair(FElement.identity()) == TreePair(L, L)

    def test_identical_trees_collapse(self):
        t = ((L, L), (L, L))
        assert tree_pair_to_diagram(TreePair(t, t)).is_identity

    def test_single_leaf_pair(self):
        assert tree_pair_to_diagram(TreePair(L, L)).is_identity

    def test_x0_pair_round_trip(self):
        pair = diagram_to_tree_pair(X0)
        assert tree_pair_to_diagram(pair) == X0

    def test_merge_free_form_strips_merges(self):
        r = rng(9)
        for _ in range(30):
            g = from_word(random_f_word(r, 8))
            tree_part, rounds = merge_free_form(g.rep)
            assert tree_part.merge_count == 0
            assert tree_part.m == 1
            assert rounds <= g.rep.merge_count + 1

    def test_round_trip_random_pairs(self):
        # recovered pair may differ by common carets but gives the same element
        r = rng(21)
        for _ in range(40):
            n = r.randint(1, 7)
            pair = TreePair(random_tree(r, exact=n), random_tree(r, exact=n))
            g = tree_pair_to_diagram(pair)
            assert tree_pair_to_diagram(diagram_to_tree_pair(g)) == g

    def test_reduced_pair_matches_full_round_reference(self):
        r = rng(31)
        for _ in range(200):
            g = from_word(random_f_word(r, 12))
            assert pl_eq(tree_pair_pl(full_round_tree_pair(g)), to_pl(g))

    def test_merge_free_form_is_the_reduced_tree(self):
        r = rng(33)
        for _ in range(200):
            g = from_word(random_f_word(r, 16))
            tree_part, _ = merge_free_form(g.rep)
            assert tree_part.n == split_count(g.rep) + 1

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 20, 50, 200, 2000])
    def test_ab_ladder_leaves_grow_linearly(self, k):
        pair = diagram_to_tree_pair(from_word("ab" * k))
        assert leaves(pair.domain) == leaves(pair.range) == 2 * k + 2

    def test_ab_power_matches_composed_maps(self):
        step = to_pl(from_word("ab"))
        expected = step
        for _ in range(49):
            expected = pl_compose(expected, step)
        assert pl_eq(to_pl(from_word("ab" * 50)), expected)

    def test_pair_composition_matches_diagram_product(self):
        r = rng(12)
        for _ in range(40):
            a = from_word(random_f_word(r, 6))
            b = from_word(random_f_word(r, 6))
            pa, pb = diagram_to_tree_pair(a), diagram_to_tree_pair(b)
            recomposed = tree_pair_to_diagram(pa) * tree_pair_to_diagram(pb)
            assert recomposed == a * b


class TestTreeWalker:
    """The one-walk tree reader against the rounds-based reference."""

    @staticmethod
    def assert_matches_reference(d):
        form, rounds = merge_free_form(d)
        ref_form, ref_rounds = reference_merge_free_form(d)
        assert (form, rounds) == (ref_form, ref_rounds)
        assert diagram_tree(d) == reference_diagram_tree(ref_form)

    def test_seeded_words_match_reference(self):
        r = rng(81)
        for _ in range(200):
            g = from_word(random_f_word(r, 30))
            self.assert_matches_reference(g.rep)
            assert diagram_to_tree_pair(g) == reference_tree_pair(g)

    def test_seeded_vertices_match_reference(self):
        r = rng(82)
        rounds = set()
        for _ in range(200):
            v = random_vertex_diagram(r, 30)
            self.assert_matches_reference(v)
            rounds.add(merge_free_form(v)[1])
        assert len(rounds) > 2  # the set reaches chains of several merges

    def test_unreduced_input_reads_the_reduced_form(self):
        r = rng(83)
        for _ in range(100):
            d = random_diagram(r, m=1, max_events=20)
            assert diagram_tree(d) == diagram_tree(reduce(d))
            assert merge_free_form(d) == merge_free_form(reduce(d))
        # S1 M1 reduces to the identity, whose tree is a single leaf
        assert merge_free_form(from_slices(SliceWord(1, (S(1), M(1))))) == (tree_diagram(L), 0)

    def test_rejects_more_than_one_source(self):
        with pytest.raises(DomainError):
            diagram_tree(from_slices(SliceWord(2, (M(1),))))

    def test_split_under_merge_is_an_invariant_violation(self):
        # S1 M1 S1 has a type-I redex; flagged reduced, the walker stops at
        # the merge and misses the split below it
        d = from_slices(SliceWord(1, (S(1), M(1), S(1))))
        d._reduced = True
        with pytest.raises(InvariantViolation):
            diagram_tree(d)

    def test_ab_ladder_rounds(self):
        # (ab)^k needs 2k + 1 splitting rounds
        for k in (1, 5, 40):
            _, rounds = merge_free_form(from_word("ab" * k).rep)
            assert rounds == reference_merge_free_form(from_word("ab" * k).rep)[1] == 2 * k + 1

    def test_to_pl_and_upper_bound_never_multiply(self, monkeypatch):
        calls = []
        real = diagrams.multiply

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod in (diagrams, thompson, cubes):
            if hasattr(mod, "multiply"):
                monkeypatch.setattr(mod, "multiply", spy)
        r = rng(84)
        words = [from_word(random_f_word(r, 20)) for _ in range(30)] + [from_word("ab" * 50)]
        vertices = [ComplexVertex(random_vertex_diagram(r, 20)) for _ in range(30)]
        assert not calls
        for g in words:
            to_pl(g)
        for x, y in zip(vertices, vertices[1:]):
            upper_bound(x, y)
        assert calls == []

    def test_to_pl_and_tree_pair_never_invert(self, monkeypatch):
        calls = []
        real = diagrams.invert

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        r = rng(85)
        words = [from_word(random_f_word(r, 20)) for _ in range(30)] + [from_word("ab" * 50)]
        pairs = [reference_tree_pair(g) for g in words]
        for mod in (diagrams, thompson):
            monkeypatch.setattr(mod, "invert", spy)
        for g, pair in zip(words, pairs):
            to_pl(g)
            assert diagram_to_tree_pair(g) == pair
        assert calls == []


class TestFreshDiagramsReduceInPlace:
    @staticmethod
    def count_constructions(monkeypatch, fn):
        made = []
        real = StrandDiagram.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(StrandDiagram, "__init__", counting)
        result = fn()
        monkeypatch.undo()
        return len(made), result

    def test_from_word_builds_one_diagram(self, monkeypatch):
        made, g = self.count_constructions(monkeypatch, lambda: from_word("a" * 30 + "A" * 15 + "bB"))
        assert made == 1
        assert g == left_fold_from_word("a" * 15)

    def test_power_builds_one_diagram(self, monkeypatch):
        g = from_word("abA")
        made, p = self.count_constructions(monkeypatch, lambda: g ** -7)
        assert made == 2  # the inverse of g, then the stacked copies
        assert p == from_word("aBA" * 7)
        made, p = self.count_constructions(monkeypatch, lambda: g ** 7)
        assert made == 1
        assert p == from_word("abA" * 7)


def inverse_word(w: str) -> str:
    return w.swapcase()[::-1]


def cancelling_word(r, length: int) -> str:
    """A word of ``length`` letters: single letters, inverse pairs and whole
    blocks u u^-1, each inserted at a random position."""
    w = ""
    while len(w) < length:
        room = length - len(w)
        pick = r.random()
        if room >= 2 and pick < 0.3:
            c = r.choice("aAbB")
            piece = c + c.swapcase()
        elif room >= 2 and pick < 0.6:
            u = random_f_word(r, room // 2)
            piece = u + inverse_word(u)
        else:
            piece = r.choice("aAbB")
        pos = r.randint(0, len(w))
        w = w[:pos] + piece + w[pos:]
    return w


def seeds_of(monkeypatch, fn):
    """The seed counts handed to ``_reduce_maps`` while ``fn`` runs."""
    seen = []
    real = diagrams._reduce_maps

    def spy(d, rng, seeds=None):
        seen.append(None if seeds is None else len(seeds))
        return real(d, rng, seeds)

    monkeypatch.setattr(diagrams, "_reduce_maps", spy)
    result = fn()
    monkeypatch.undo()
    return seen, result


class TestStackedLetters:
    """``from_word`` and ``g ** k`` stack reduced (1,1) diagrams and seed
    the reduction with one anchor per seam; ``from_word`` stacks only the
    freely reduced word."""

    def test_from_word_seeds_one_anchor_per_seam(self, monkeypatch):
        # inverse letters cancel before stacking: one seam per pair of
        # neighbours in the freely reduced word
        for w in ["aA", "aBbA", "a \n A"]:
            seen, g = seeds_of(monkeypatch, lambda: from_word(w))
            assert seen == [0] and g.is_identity, w
        r = rng(1510)
        for w in ["", "a", " a\tB "] + [random_f_word(r, 40) for _ in range(100)]:
            letters = len(reference_free_reduce(w))
            seen, _ = seeds_of(monkeypatch, lambda: from_word(w))
            assert seen == [max(letters - 1, 0)], w

    @pytest.mark.parametrize("seed", range(3))
    def test_cancelling_words_match_left_fold_reference(self, monkeypatch, seed):
        r = rng(2200 + seed)
        for _ in range(100):
            w = cancelling_word(r, 40)
            assert len(w) == 40
            seen, g = seeds_of(monkeypatch, lambda: from_word(w))
            assert seen == [max(len(reference_free_reduce(w)) - 1, 0)], w
            assert g == left_fold_from_word(w), w
            assert_reduced_tables(g)

    def test_word_times_its_inverse_stacks_no_letter(self, monkeypatch):
        r = rng(2210)
        for w in ["a", "Ab", "abAB"] + [random_f_word(r, 40) for _ in range(50)]:
            seen, g = seeds_of(monkeypatch, lambda: from_word(w + inverse_word(w)))
            assert seen == [0] and g.is_identity, w

    @pytest.mark.parametrize("word, bad", [
        ("aXA", "X"),        # inside a cancelling pair
        ("aA x", "x"),       # after a cancelled pair
        ("aA?bB", "?"),      # between two cancelling pairs
        ("aAbB!", "!"),      # after every letter has cancelled
        ("xaA", "x"),        # before a cancelling pair
        ("aQbBZA", "Q"),     # two unknown letters: the first is named
        ("aAbB1aZ", "1"),
    ])
    def test_unknown_letter_is_named_before_it_could_cancel(self, word, bad):
        with pytest.raises(DomainError, match=re.escape(f"unknown generator letter {bad!r}")):
            from_word(word)
        with pytest.raises(DomainError, match=re.escape(f"unknown generator letter {bad!r}")):
            from_word(iter(word))

    def test_iterables_and_whitespace_inside_a_pair(self):
        assert from_word(iter("abBA")).is_identity
        assert from_word(iter("aBbb")) == from_word("ab")
        assert from_word("a \n A").is_identity
        assert from_word("ab \t B\na") == from_word("aa") == X0 ** 2
        assert from_word(["b", " ", "B", "a"]) == X0

    @pytest.mark.parametrize("k", [0, 1, -1, 2, -2, 50, -50])
    def test_power_seeds_one_anchor_per_seam(self, monkeypatch, k):
        g = from_word("abA")
        seen, _ = seeds_of(monkeypatch, lambda: g ** k)
        assert seen == [max(abs(k) - 1, 0)]
        seen, p = seeds_of(monkeypatch, lambda: FElement.identity() ** k)
        assert seen == [0] and p.is_identity


class TestPLMaps:
    def test_identity_eval(self):
        assert pl_eval(PLMap.identity(), Fraction(3, 8)) == Fraction(3, 8)

    def test_eval_endpoints(self):
        m = to_pl(X0)
        assert pl_eval(m, 0) == 0
        assert pl_eval(m, 1) == 1

    def test_eval_out_of_range(self):
        with pytest.raises(DomainError):
            pl_eval(PLMap.identity(), Fraction(3, 2))

    def test_x0_breakpoints(self):
        assert to_pl(X0).points == (
            (Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(3, 4)),
            (Fraction(1), Fraction(1)),
        )

    def test_monotone_on_samples(self):
        r = rng(17)
        for _ in range(20):
            m = to_pl(from_word(random_f_word(r, 8)))
            xs = sorted(Fraction(r.randint(0, 64), 64) for _ in range(10))
            ys = [pl_eval(m, x) for x in xs]
            for (x0, x1), (y0, y1) in zip(zip(xs, xs[1:]), zip(ys, ys[1:])):
                if x0 < x1:
                    assert y0 < y1

    def test_compose_with_identity(self):
        m = to_pl(X1)
        assert pl_eq(pl_compose(m, PLMap.identity()), m)
        assert pl_eq(pl_compose(PLMap.identity(), m), m)

    def test_inverse_swaps_coordinates(self):
        r = rng(23)
        for _ in range(25):
            g = from_word(random_f_word(r, 8))
            assert pl_eq(to_pl(~g), pl_inverse(to_pl(g)))

    def test_homomorphism(self):
        r = rng(29)
        for _ in range(60):
            a = from_word(random_f_word(r, 6))
            b = from_word(random_f_word(r, 6))
            assert pl_eq(to_pl(a * b), pl_compose(to_pl(a), to_pl(b)))

    def test_validation_rejects_non_dyadic_breakpoints(self):
        with pytest.raises(DomainError, match="dyadic"):
            PLMap(((Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(1, 3)),
                   (Fraction(1), Fraction(1))))

    def test_validation_rejects_bad_slopes(self):
        with pytest.raises(DomainError, match="power of two"):
            PLMap(((Fraction(0), Fraction(0)), (Fraction(1, 4), Fraction(3, 4)),
                   (Fraction(1), Fraction(1))))

    def test_validation_rejects_non_monotone(self):
        with pytest.raises(DomainError, match="increasing"):
            PLMap(((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)),
                   (Fraction(1), Fraction(1))))


INVALID_POINTS = {
    "run from": ((0, 0), (1, F(1, 2))),
    "increasing": ((0, 0), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)), (1, 1)),
    "power of two": ((0, 0), (F(1, 4), F(3, 4)), (1, 1)),
    "dyadic": ((0, 0), (F(1, 3), F(2, 3)), (1, 1)),
}


def perturbed_points(r) -> tuple:
    """The breakpoints of a random element with one point moved, dropped,
    repeated or swapped with its neighbour, or none changed."""
    pts = list(to_pl(from_word(random_f_word(r, 8))).points)
    i = r.randrange(len(pts))
    move = r.randrange(5)
    if move == 0:
        x, y = pts[i]
        d = F(r.choice([1, -1]), r.choice([2, 3, 5, 8, 16, 64]))
        pts[i] = r.choice([(x + d, y), (x, y + d), (x + d, y + d)])
    elif move == 1 and len(pts) > 2:
        del pts[i]
    elif move == 2:
        pts.insert(i, pts[i])
    elif move == 3 and i + 1 < len(pts):
        pts[i], pts[i + 1] = pts[i + 1], pts[i]
    return tuple(pts)


NON_RATIONAL_POINTS = [((0.0, 0.0), (1.0, 1.0)), ((0, 0), (0.5, 0.5), (1, 1)),
                       (("0", "0"), ("1", "1")), ((0, 0), (1, "1"))]


class TestPLValidation:
    """``PLMap`` rejects what the Fraction validator kept in
    ``tests/helpers.py`` rejects, with its message."""

    @pytest.mark.parametrize("kind", sorted(INVALID_POINTS))
    def test_each_invalid_kind_raises(self, kind):
        pts = INVALID_POINTS[kind]
        assert kind in reference_pl_check(pts)
        with pytest.raises(DomainError, match=kind):
            PLMap(pts)

    def test_matches_reference_on_perturbed_maps(self):
        r = rng(1207)
        rejected = 0
        for _ in range(600):
            pts = perturbed_points(r)
            msg = reference_pl_check(pts)
            if msg is None:
                assert PLMap(pts).points == reference_canonical_points(pts)
            else:
                rejected += 1
                with pytest.raises(DomainError, match=re.escape(msg)):
                    PLMap(pts)
        assert 300 < rejected < 1000

    @pytest.mark.parametrize("pts", NON_RATIONAL_POINTS)
    def test_non_rational_coordinates_raise(self, pts):
        with pytest.raises(DomainError, match="not rational"):
            PLMap(pts)

    @pytest.mark.parametrize("pts", NON_RATIONAL_POINTS + [((0.0, 0.0), ("1", 1))])
    def test_from_points_rejects_non_rational_like_init(self, pts):
        # PLMap(...) drops collinear points as from_points did; the rational
        # check still comes first, so (0.5, 0.5) on the identity is rejected,
        # not dropped, and the message names the first bad coordinate
        bad = next(v for p in pts for v in p if not isinstance(v, Rational))
        with pytest.raises(DomainError) as by_init:
            PLMap(pts)
        assert str(by_init.value) == f"breakpoint coordinate {bad!r} is not rational"

    def test_library_maps_failing_the_check_are_bugs(self):
        with pytest.raises(InvariantViolation, match="power of two"):
            thompson._pl_map(2, [0, 1, 4], [0, 3, 4])

    def test_inexact_division_raises(self):
        assert thompson._times_pow2(3, 2) == 12
        assert thompson._times_pow2(12, -2) == 3
        with pytest.raises(InvariantViolation):
            thompson._times_pow2(6, -2)


def with_collinear_points(r, pts: tuple) -> tuple:
    """``pts`` with points added inside random segments, on the segment."""
    pts = list(pts)
    for _ in range(r.randint(1, 3)):
        i = r.randrange(len(pts) - 1)
        (x0, y0), (x1, y1) = pts[i], pts[i + 1]
        t = F(r.randint(1, 7), 8)
        pts.insert(i + 1, (x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    return tuple(pts)


class TestCanonicalEquality:
    """``PLMap(...)`` drops collinear extras from the breakpoints it is
    given, so ``points`` reads back canonical and ``==``, ``hash`` and
    ``pl_eq`` are map equality."""

    def test_collinear_midpoint_of_the_identity(self):
        m = PLMap(((0, 0), (F(1, 2), F(1, 2)), (1, 1)))
        assert m.points == ((0, 0), (1, 1)) == PLMap.identity().points
        assert pl_eq(m, PLMap.identity()) and pl_eq(PLMap.identity(), m)
        assert m == PLMap.identity() and hash(m) == hash(PLMap.identity())

    def test_collinear_variants_of_seeded_maps(self):
        r = rng(1401)
        for _ in range(200):
            m = to_pl(from_word(random_f_word(r, 10)))
            pts = with_collinear_points(r, m.points)
            v = PLMap(pts)
            assert len(pts) > len(m.points)
            assert v.points == m.points == reference_canonical_points(pts)
            assert pl_eq(v, m) and pl_eq(m, v)
            assert v == m and hash(v) == hash(m)
            assert v._num == m._num
            assert [pl_eval(v, x) for x, _ in pts] == [pl_eval(m, x) for x, _ in pts]
            assert pl_eq(pl_inverse(v), pl_inverse(m))

    def test_unchanged_on_seeded_word_pairs(self):
        # breakpoint tuples were the equality test; half the pairs are
        # two words for one element
        r = rng(1402)
        equal = 0
        for k in range(300):
            w = random_f_word(r, 8)
            if k % 2:
                i = r.randrange(len(w) + 1)
                u = w[:i] + r.choice(["aA", "Aa", "bB", "Bb"]) + w[i:]
            else:
                u = random_f_word(r, 8)
            pa, pb = to_pl(from_word(w)), to_pl(from_word(u))
            assert pl_eq(pa, pb) == (pa.points == pb.points)
            assert (pa == pb) == pl_eq(pa, pb) == (from_word(w) == from_word(u))
            assert pa != pb or hash(pa) == hash(pb)
            equal += pl_eq(pa, pb)
        assert 150 <= equal < 300


class TestPLEvalMatchesReference:
    def test_endpoints_breakpoints_and_interior_points(self):
        r = rng(1403)
        for _ in range(200):
            m = to_pl(from_word(random_f_word(r, 12)))
            xs = [x for x, _ in m.points]
            xs += [F(r.randint(1, 2 ** 10 - 1), 2 ** 10) for _ in range(5)]
            xs += [F(r.randint(1, 999), 1000) for _ in range(5)]
            for x in xs:
                assert pl_eval(m, x) == reference_pl_eval(m.points, x)
            assert pl_eval(m, 0) == 0 and pl_eval(m, 1) == 1


def assert_exact(m: PLMap) -> None:
    assert all(type(v) is Fraction for p in m.points for v in p)


class TestIntegerPLMatchesReference:
    """``to_pl`` and ``pl_compose`` on int numerators
    give the points of the Fraction reference in ``tests/helpers.py``."""

    def test_random_words(self):
        r = rng(1201)
        for _ in range(300):
            a = from_word(random_f_word(r, 16))
            b = from_word(random_f_word(r, 16))
            pair = diagram_to_tree_pair(a)
            pa, pb = to_pl(a), to_pl(b)
            assert pa.points == reference_tree_pair_pl(pair).points
            ab = pl_compose(pa, pb)
            assert ab.points == reference_pl_compose(pa, pb).points == to_pl(a * b).points
            assert_exact(ab)

    def test_inverses_compose_to_the_identity(self):
        r = rng(1202)
        e = PLMap.identity().points
        for _ in range(200):
            g = from_word(random_f_word(r, 16))
            m, inv = to_pl(g), to_pl(~g)
            assert inv.points == reference_tree_pair_pl(diagram_to_tree_pair(~g)).points
            assert pl_inverse(m).points == inv.points
            assert pl_compose(m, inv).points == pl_compose(inv, m).points == e
            assert reference_pl_compose(m, inv).points == e

    @pytest.mark.parametrize("k", range(1, 9))
    def test_ab_ladder(self, k):
        g = from_word("ab" * k)
        assert to_pl(g).points == reference_tree_pair_pl(diagram_to_tree_pair(g)).points
        step = to_pl(from_word("ab"))
        got = ref = step
        for _ in range(k - 1):
            got, ref = pl_compose(got, step), reference_pl_compose(ref, step)
        assert got.points == ref.points == to_pl(g).points

    def test_combs_deeper_than_the_recursion_limit(self):
        n = 1500
        assert n > sys.getrecursionlimit()
        right = left = L
        for _ in range(n - 1):
            right, left = (L, right), (left, L)
        maps = []
        for pair in (TreePair(right, left), TreePair(left, right)):
            m = tree_pair_pl(pair)
            assert m.points == reference_tree_pair_pl(pair).points
            assert max(v.denominator for p in m.points for v in p) == 2 ** (n - 1)
            assert to_pl(tree_pair_to_diagram(pair)).points == m.points
            assert_exact(m)
            maps.append(m)
        there, back = maps
        assert pl_compose(there, back).points == PLMap.identity().points
        twice = pl_compose(there, there)
        assert twice.points == reference_pl_compose(there, there).points


class TestPointsBuiltOnRead:
    """The PL layer runs on ints: only a read of ``PLMap.points`` builds
    ``Fraction``s, once per map."""

    def test_fractions_only_on_first_read_of_points(self, monkeypatch):
        built = []

        class Counting(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return super().__new__(cls, *args)

        monkeypatch.setattr(thompson, "Fraction", Counting)
        r = rng(1901)
        for _ in range(100):
            g, h = from_word(random_f_word(r, 16)), from_word(random_f_word(r, 16))
            m = to_pl(g)
            maps = [m, pl_compose(m, to_pl(h)), pl_inverse(m), PLMap.identity()]
            assert built == []
            for x in maps:
                pts = x.points
                assert len(built) == 2 * len(pts)
                assert x.points is pts and len(built) == 2 * len(pts)
                built.clear()
            assert m.points == reference_tree_pair_pl(diagram_to_tree_pair(g)).points
            built.clear()  # the reference map's points were read too


class TestWordProblemCrossOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_diagram_and_pl_equality_agree(self, seed):
        r = rng(seed)
        a = from_word(random_f_word(r, 10))
        b = from_word(random_f_word(r, 10))
        assert (a == b) == pl_eq(to_pl(a), to_pl(b))

    @pytest.mark.parametrize("seed", range(60))
    def test_identity_detection_agrees(self, seed):
        r = rng(seed + 777)
        w = random_f_word(r, 12)
        g = from_word(w)
        assert g.is_identity == pl_eq(to_pl(g), PLMap.identity())
