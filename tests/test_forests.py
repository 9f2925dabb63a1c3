"""Elementary forests, weightings, and generalized-diagram canonical forms."""

from fractions import Fraction
from itertools import product

import pytest

from fstrands import diagrams, forests
from fstrands.cubes import elementary_forests_at
from fstrands.diagrams import (
    M,
    S,
    SliceWord,
    equivalent,
    from_slices,
    identity,
    invert,
    multiply,
    multiply_row,
)
from fstrands.errors import CompositionError, DomainError
from fstrands.forests import (
    EDGE,
    ElementaryForest,
    GeneralizedStrandDiagram,
    WeightedElementaryForest,
    canonicalize_generalized,
    random_gmove,
)

from helpers import (
    assert_as_if_checked,
    caret_count,
    random_elementary_forest,
    random_generalized,
    random_vertex_diagram,
    reference_canonicalize_generalized,
    reference_elementary_forests_at,
    reference_is_reduced,
    rng,
    row_slice_word,
    split_count,
)
from helpers import weighted_forest as wf

E, SC, MC = "E", "S", "M"
half = Fraction(1, 2)


def forest_diagram(*row):
    return multiply_row(identity(sum(2 if k == MC else 1 for k in row)), row)


class TestElementaryForest:
    def test_source_sink_counts(self):
        f = ElementaryForest((SC, MC, E))
        assert f.sources == 4
        assert f.sinks == 4
        assert caret_count(f) == 2

    def test_to_slices(self):
        # the diagram of a forest linearizes to its row, caret by caret
        assert forest_diagram(E, E).to_slices() == SliceWord(2)
        assert forest_diagram(SC, E).to_slices() == SliceWord(2, (S(1),))
        assert forest_diagram(E, MC).to_slices() == SliceWord(3, (M(2),))
        assert forest_diagram(SC, MC, SC).to_slices() == SliceWord(4, (S(1), M(3), S(4)))

    def test_rejects_unknown_component(self):
        with pytest.raises(DomainError, match="'X'"):
            ElementaryForest((E, "X", SC))

    def test_forest_diagrams_are_flagged_reduced(self):
        # the flag must agree with a full redex scan of an unflagged copy
        def scanned(word):
            assert not from_slices(word)._reduced
            return reference_is_reduced(word)

        for n in range(1, 7):
            for f in elementary_forests_at(n):
                d = forest_diagram(*f.components)
                assert (d._reduced, scanned(row_slice_word(f.components))) == (True, True)
            for kind, last in ((SC, n), (MC, n - 1)):
                for pos in range(1, last + 1):
                    word = SliceWord(n, ((kind, pos),))
                    row = (E,) * (pos - 1) + (kind,) + (E,) * (last - pos)
                    assert (forest_diagram(*row)._reduced, scanned(word)) == (True, True)

    @pytest.mark.parametrize("seed", range(60))
    def test_factorization_residuals(self, seed):
        # applying the forest equals applying its splitting part followed by
        # a merging forest, and its merging part followed by a splitting one
        r = rng(seed)
        f = random_elementary_forest(r, r.randint(1, 9))
        d = forest_diagram(*f.components)
        sp = forest_diagram(*(c for k in f.components for c in ((E, E) if k == MC else (k,))))
        mg = forest_diagram(*(E if k == SC else k for k in f.components))
        res_after_split = multiply(invert(sp), d)
        assert split_count(res_after_split) == 0
        assert equivalent(multiply(sp, res_after_split), d)
        res_after_merge = multiply(invert(mg), d)
        assert res_after_merge.merge_count == 0
        assert equivalent(multiply(mg, res_after_merge), d)


class TestWeightedForest:
    def test_rejects_weight_on_edge(self):
        with pytest.raises(DomainError):
            WeightedElementaryForest((E,), (half,))

    def test_rejects_missing_weight(self):
        with pytest.raises(DomainError):
            WeightedElementaryForest((SC,), (None,))

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(DomainError):
            WeightedElementaryForest((SC,), (Fraction(3, 2),))


class TestGeneralized:
    def test_arity_mismatch(self):
        with pytest.raises(CompositionError):
            GeneralizedStrandDiagram(identity(1), wf(E, E))

    def test_base_is_auto_reduced(self):
        unreduced = from_slices(SliceWord(1, (S(1), M(1), S(1))))
        g = GeneralizedStrandDiagram(unreduced, wf(E, E))
        assert g.base == from_slices(SliceWord(1, (S(1),)))


class TestCanonicalize:
    def test_weight_zero_split_dissolves(self):
        g = GeneralizedStrandDiagram(identity(1), wf((SC, 0)))
        c = canonicalize_generalized(g)
        assert c.base == identity(1)
        assert c.forest == wf(E)

    def test_weight_one_split_absorbs(self):
        g = GeneralizedStrandDiagram(identity(1), wf((SC, 1)))
        c = canonicalize_generalized(g)
        assert c.base == from_slices(SliceWord(1, (S(1),)))
        assert c.forest == wf(E, E)

    def test_interface_merge_flips_to_split(self):
        base = from_slices(SliceWord(1, (S(1),)))
        g = GeneralizedStrandDiagram(base, wf((MC, half)))
        c = canonicalize_generalized(g)
        assert c.base == identity(1)
        assert c.forest == wf((SC, 1 - half))

    def test_interface_split_flips_to_merge(self):
        # a (1,1) base ending in a merge pushes a split caret through
        base = from_slices(SliceWord(1, (S(1), S(1), M(2), M(1))))
        g = GeneralizedStrandDiagram(base, wf((SC, Fraction(1, 4))))
        c = canonicalize_generalized(g)
        assert c.base.n == 2
        assert c.forest == wf((MC, Fraction(3, 4)))

    def test_corner_absorption_matches_direct_corner(self):
        # both parameterizations of the same cube corner canonicalize alike
        g = GeneralizedStrandDiagram(identity(1), wf((SC, 1)))
        direct = GeneralizedStrandDiagram.vertex(from_slices(SliceWord(1, (S(1),))))
        assert canonicalize_generalized(g) == canonicalize_generalized(direct)

    @pytest.mark.parametrize("seed", range(60))
    def test_idempotent(self, seed):
        g = random_generalized(rng(seed), max_carets=8)
        c = canonicalize_generalized(g)
        assert canonicalize_generalized(c) == c

    @pytest.mark.parametrize("seed", range(60))
    def test_canonical_invariants(self, seed):
        g = random_generalized(rng(seed + 100), max_carets=8)
        c = canonicalize_generalized(g)
        for k, w in c.forest.pairs():
            if k != EDGE:
                assert 0 < w < 1
        splits = c.base.bottom_split_pairs()
        merges = c.base.bottom_merge_positions()
        pos = 1
        for k, w in c.forest.pairs():
            if k == MC:
                assert pos not in splits
            if k == SC:
                assert pos not in merges
            pos += 2 if k == MC else 1

    def test_flips_every_interface_caret_in_one_row(self):
        # both split pairs of the base meet a merge caret, and both flip
        base = from_slices(SliceWord(1, (S(1), S(1), S(3))))
        g = GeneralizedStrandDiagram(base, wf((MC, half), (MC, Fraction(1, 3))))
        c = canonicalize_generalized(g)
        assert c.base == from_slices(SliceWord(1, (S(1),)))
        assert c.forest == wf((SC, half), (SC, Fraction(2, 3)))

    @pytest.mark.parametrize("chunk", range(10))
    def test_matches_one_move_at_a_time(self, chunk):
        # closed-unit weights scrambled by random moves: every pass has work
        for seed in range(200 * chunk, 200 * (chunk + 1)):
            r = rng(seed + 9000)
            g = random_generalized(r, open_unit=False)
            for _ in range(r.randint(0, 60)):
                g = random_gmove(g, r)
                assert_as_if_checked(g)
            got, ref = canonicalize_generalized(g), reference_canonicalize_generalized(g)
            assert (got.base, got.forest) == (ref.base, ref.forest)
            assert_as_if_checked(got)

    def test_stacks_one_row(self, monkeypatch):
        rows, real = [], forests.multiply_row

        def spy(a, kinds):
            rows.append(tuple(kinds))
            return real(a, kinds)

        def no_multiply(*args, **kw):
            raise AssertionError("canonicalization called multiply")

        monkeypatch.setattr(forests, "multiply_row", spy)
        for mod in (diagrams, forests):
            if hasattr(mod, "multiply"):
                monkeypatch.setattr(mod, "multiply", no_multiply)
        mixed = 0
        for seed in range(300):
            r = rng(seed + 12000)
            g = random_generalized(r, open_unit=False)
            for _ in range(r.randint(0, 30)):
                g = random_gmove(g, r)
            rows.clear()
            canonicalize_generalized(g)
            assert len(rows) <= 1
            # every weight-1 caret joins the row, and any other caret in it is a flip
            joined = sum(1 for _, w in g.forest.pairs() if w == 1)
            carets = sum(1 for row in rows for c in row if c != EDGE)
            mixed += 0 < joined < carets
        assert mixed  # some rows join a weight-1 caret and flip another

    def test_joined_caret_beside_flipped_caret(self):
        # sinks 1, 2 are a split pair under a merge caret, which flips;
        # sink 3 takes a weight-1 split, which joins the base
        base = from_slices(SliceWord(1, (S(1), S(1))))
        g = GeneralizedStrandDiagram(base, wf((MC, half), (SC, 1)))
        c = canonicalize_generalized(g)
        assert c.base == from_slices(SliceWord(1, (S(1), S(2))))
        assert c.forest == wf((SC, half), E, E)
        ref = reference_canonicalize_generalized(g)
        assert (c.base, c.forest) == (ref.base, ref.forest)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_reference_on_every_small_forest(self, n):
        # every forest on n strands, every weighting in {0, 1/3, 1}, over
        # seeded bases with merges
        r = rng(13000 + n)
        bases = set()
        while len(bases) < 10:
            d = random_vertex_diagram(r, 12)
            if d.n == n and d.merge_count:
                bases.add(d)
        for base in bases:
            for f in reference_elementary_forests_at(n):
                carets = [i for i, k in enumerate(f.components) if k != E]
                for ws in product((0, Fraction(1, 3), 1), repeat=len(carets)):
                    weights = [None] * len(f.components)
                    for i, w in zip(carets, ws):
                        weights[i] = w
                    g = GeneralizedStrandDiagram(base, WeightedElementaryForest(f.components, weights))
                    got, ref = canonicalize_generalized(g), reference_canonicalize_generalized(g)
                    assert (got.base, got.forest) == (ref.base, ref.forest)
                    assert_as_if_checked(got)


class TestRandomGmove:
    @pytest.mark.parametrize("seed", range(80))
    def test_single_move_stays_in_class(self, seed):
        g = random_generalized(rng(seed), max_carets=8)
        moved = random_gmove(g, seed * 7 + 1)
        assert_as_if_checked(moved)
        assert moved != g or canonicalize_generalized(g) == g
        assert canonicalize_generalized(moved) == canonicalize_generalized(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_stacked_moves_stay_in_class(self, seed):
        r = rng(seed + 4000)
        g = random_generalized(r, max_carets=8)
        h = g
        for _ in range(5):
            h = random_gmove(h, r)
            assert_as_if_checked(h)
        assert canonicalize_generalized(h) == canonicalize_generalized(g)

    def test_round_trip_from_canonical_vertex(self):
        g = canonicalize_generalized(GeneralizedStrandDiagram.vertex(identity(1)))
        moved = random_gmove(g, 3)
        assert canonicalize_generalized(moved) == g
