"""Elementary forests, weightings, and generalized-diagram canonical forms."""

from fractions import Fraction

import pytest

from fstrands.cubes import elementary_forests_at
from fstrands.diagrams import (
    M,
    S,
    SliceWord,
    _redex_at,
    equivalent,
    from_slices,
    identity,
    invert,
    multiply,
)
from fstrands.errors import CompositionError, DomainError
from fstrands.forests import (
    EDGE,
    ElementaryForest,
    GeneralizedStrandDiagram,
    WeightedElementaryForest,
    caret_diagram,
    canonicalize_generalized,
    random_gmove,
)

from helpers import random_elementary_forest, random_generalized, rng

E, SC, MC = "E", "S", "M"
half = Fraction(1, 2)


def wf(*pairs):
    return WeightedElementaryForest.from_pairs(pairs)


class TestElementaryForest:
    def test_source_sink_counts(self):
        f = ElementaryForest((SC, MC, E))
        assert f.sources == 4
        assert f.sinks == 4
        assert f.caret_count == 2

    def test_split_factor(self):
        assert ElementaryForest((E,)).split_factor() == ElementaryForest((E,))
        assert ElementaryForest((MC,)).split_factor() == ElementaryForest((E, E))
        assert ElementaryForest((SC, MC, E)).split_factor() == ElementaryForest(
            (SC, E, E, E)
        )

    def test_merge_factor(self):
        assert ElementaryForest((E,)).merge_factor() == ElementaryForest((E,))
        assert ElementaryForest((SC,)).merge_factor() == ElementaryForest((E,))
        assert ElementaryForest((SC, MC, E)).merge_factor() == ElementaryForest(
            (E, MC, E)
        )

    def test_to_slices(self):
        assert ElementaryForest((E, E)).to_slices() == SliceWord(2)
        assert ElementaryForest((SC, E)).to_slices() == SliceWord(2, (S(1),))
        assert ElementaryForest((E, MC)).to_slices() == SliceWord(3, (M(2),))

    def test_rejects_unknown_component(self):
        with pytest.raises(DomainError, match="'X'"):
            ElementaryForest((E, "X", SC))

    def test_forest_diagrams_are_flagged_reduced(self):
        # the flag must agree with a full redex scan of an unflagged copy
        def scanned(word):
            d = from_slices(word)
            assert not d._reduced
            return all(_redex_at(v, d._kind, d._down) is None for v in d._kind)

        for n in range(1, 7):
            for f in elementary_forests_at(n):
                assert (f.to_diagram()._reduced, scanned(f.to_slices())) == (True, True)
            for kind, last in ((SC, n), (MC, n - 1)):
                for pos in range(1, last + 1):
                    word = SliceWord(n, ((kind, pos),))
                    assert (caret_diagram(n, kind, pos)._reduced, scanned(word)) == (True, True)

    def test_factor_arity_bookkeeping(self):
        for seed in range(30):
            f = random_elementary_forest(rng(seed), rng(seed).randint(1, 9))
            assert f.split_factor().sources == f.sources
            assert f.merge_factor().sources == f.sources
            assert f.split_factor().sinks >= f.sinks
            assert f.merge_factor().sinks <= f.sources

    @pytest.mark.parametrize("seed", range(60))
    def test_factorization_residuals(self, seed):
        # applying the forest equals applying its splitting part followed by
        # a merging forest, and its merging part followed by a splitting one
        r = rng(seed)
        f = random_elementary_forest(r, r.randint(1, 9))
        d = f.to_diagram()
        sp = f.split_factor().to_diagram()
        mg = f.merge_factor().to_diagram()
        res_after_split = multiply(invert(sp), d)
        assert res_after_split.split_count == 0
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
            wf((SC, Fraction(3, 2)))

    def test_caret_weights(self):
        w = wf(E, (SC, half), (MC, Fraction(1, 3)))
        assert w.caret_weights == {1: half, 2: Fraction(1, 3)}


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


class TestRandomGmove:
    @pytest.mark.parametrize("seed", range(80))
    def test_single_move_stays_in_class(self, seed):
        g = random_generalized(rng(seed), max_carets=8)
        moved = random_gmove(g, seed * 7 + 1)
        assert moved != g or canonicalize_generalized(g) == g
        assert canonicalize_generalized(moved) == canonicalize_generalized(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_stacked_moves_stay_in_class(self, seed):
        r = rng(seed + 4000)
        g = random_generalized(r, max_carets=8)
        h = g
        for _ in range(5):
            h = random_gmove(h, r)
        assert canonicalize_generalized(h) == canonicalize_generalized(g)

    def test_round_trip_from_canonical_vertex(self):
        g = canonicalize_generalized(GeneralizedStrandDiagram.vertex(identity(1)))
        moved = random_gmove(g, 3)
        assert canonicalize_generalized(moved) == g
