"""Strand diagram construction, linearization, reduction, groupoid ops."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstrands.diagrams import (
    M,
    S,
    SliceWord,
    canonical_encoding,
    equivalent,
    from_slices,
    identity,
    invert,
    is_reduced,
    multiply,
    reduce,
)
from fstrands.errors import CompositionError, SliceWordError

from helpers import (
    commutation_closure,
    random_diagram,
    random_slice_word,
    rng,
    structural_signature,
)


@st.composite
def slice_words(draw, max_events=18, m_max=4):
    m = draw(st.integers(1, m_max))
    n_events = draw(st.integers(0, max_events))
    count = m
    events = []
    for _ in range(n_events):
        if count == 1 or draw(st.booleans()):
            events.append(S(draw(st.integers(1, count))))
            count += 1
        else:
            events.append(M(draw(st.integers(1, count - 1))))
            count -= 1
    return SliceWord(m, tuple(events))


class TestSliceWord:
    def test_sinks_tracks_running_count(self):
        w = SliceWord(3, (S(2), M(1)))
        assert w.sinks == 3

    def test_rejects_bad_split_index(self):
        with pytest.raises(SliceWordError, match="event 1"):
            SliceWord(1, (S(2),))

    def test_rejects_merge_on_single_strand(self):
        with pytest.raises(SliceWordError, match="event 2"):
            SliceWord(1, (S(1), M(2)))

    def test_rejects_nonpositive_sources(self):
        with pytest.raises(SliceWordError):
            SliceWord(0, ())


class TestFromSlices:
    def test_trivial_diagram(self):
        d = from_slices(SliceWord(1))
        assert (d.m, d.n, d.vertex_count) == (1, 1, 0)

    def test_single_split(self):
        d = from_slices(SliceWord(1, (S(1),)))
        assert (d.m, d.n) == (1, 2)
        assert d.split_count == 1 and d.merge_count == 0

    def test_mixed_word_boundary_counts(self):
        # hand simulation: 3 strands, split #2 (count 4), merge #1 (count 3)
        d = from_slices(SliceWord(3, (S(2), M(1))))
        assert (d.m, d.n) == (3, 3)
        assert d.split_count == 1 and d.merge_count == 1
        assert d.to_slices().events == (S(2), M(1))


class TestToSlices:
    def test_trivial(self):
        assert from_slices(SliceWord(1)).to_slices() == SliceWord(1)

    def test_disjoint_splits_prefer_left(self):
        # the two splits act on disjoint strands; greedy emits the left one
        # first, after which the old strand 2 sits at position 3
        d = from_slices(SliceWord(2, (S(2), S(1))))
        assert d.to_slices().events == (S(1), S(3))
        closure = commutation_closure(SliceWord(2, (S(2), S(1))))
        assert d.to_slices().events in closure
        assert (S(1), S(3)) in closure

    @pytest.mark.parametrize("seed", range(40))
    def test_commutation_closure_collapses(self, seed):
        # every word commutation-equivalent to w linearizes identically
        r = rng(seed)
        w = random_slice_word(r, max_events=7, m_max=3)
        canon = from_slices(w).to_slices()
        sig = structural_signature(from_slices(w))
        for events in commutation_closure(w):
            d2 = from_slices(SliceWord(w.sources, events))
            assert d2.to_slices() == canon
            assert structural_signature(d2) == sig

    @pytest.mark.parametrize("seed", range(40))
    def test_canonical_word_is_commutation_reachable(self, seed):
        r = rng(seed + 1000)
        w = random_slice_word(r, max_events=7, m_max=3)
        canon = from_slices(w).to_slices()
        assert canon.events in commutation_closure(w)

    @given(slice_words())
    @settings(max_examples=120)
    def test_round_trip(self, w):
        d = from_slices(w)
        again = from_slices(d.to_slices())
        assert again == d
        assert again.to_slices() == d.to_slices()
        assert structural_signature(again) == structural_signature(d)


class TestReduce:
    def test_split_then_merge_cancels(self):
        d = from_slices(SliceWord(1, (S(1), M(1))))
        assert reduce(d) == identity(1)

    def test_merge_then_split_cancels(self):
        d = from_slices(SliceWord(2, (M(1), S(1))))
        assert reduce(d) == identity(2)

    def test_reduced_diagram_is_fixed(self):
        d = from_slices(SliceWord(3, (S(2), M(1))))
        assert is_reduced(d)
        assert reduce(d) is d

    def test_is_reduced_flags_nested_redex(self):
        # the second split's outputs both enter the merge
        d = from_slices(SliceWord(1, (S(1), S(2), M(2))))
        assert not is_reduced(d)
        assert reduce(d) == from_slices(SliceWord(1, (S(1),)))

    def test_sibling_merge_is_not_a_redex(self):
        # merge inputs come from two different splits: nothing cancels
        d = from_slices(SliceWord(1, (S(1), S(1), M(2))))
        assert is_reduced(d)
        assert reduce(d) is d

    def test_trivial_is_reduced(self):
        assert is_reduced(identity(1))

    @given(slice_words())
    @settings(max_examples=120)
    def test_reduce_reaches_fixpoint_and_preserves_boundary(self, w):
        d = from_slices(w)
        red = reduce(d)
        assert is_reduced(red)
        assert (red.m, red.n) == (d.m, d.n)
        assert red.vertex_count <= d.vertex_count
        assert (d.vertex_count - red.vertex_count) % 2 == 0

    def test_random_order_agrees_on_acceptance_inputs(self):
        # the first diagrams of the acceptance-01 stream, with its seeds
        r = rng(101)
        for _ in range(300):
            d = random_diagram(r, max_events=40, m_max=6)
            seeds = [r.randrange(2 ** 30) for _ in range(5)]
            red = reduce(d)
            assert is_reduced(from_slices(red.to_slices()))
            for s in seeds:
                assert reduce(d, rng=random.Random(s)) == red

    @pytest.mark.parametrize("seed", range(30))
    def test_confluence_random_orders(self, seed):
        r = rng(seed)
        d = random_diagram(r, max_events=30)
        encs = {
            canonical_encoding(reduce(d, rng=rng(seed * 31 + k))) for k in range(4)
        }
        encs.add(canonical_encoding(reduce(d)))
        assert len(encs) == 1


class TestMultiply:
    def test_identity_times_identity(self):
        assert multiply(identity(1), identity(1)) == identity(1)

    def test_split_times_merge_is_trivial(self):
        a = from_slices(SliceWord(1, (S(1),)))
        b = from_slices(SliceWord(2, (M(1),)))
        assert multiply(a, b) == identity(1)

    def test_arity_mismatch_raises(self):
        a = from_slices(SliceWord(1, (S(1),)))
        with pytest.raises(CompositionError, match="2 sinks.*3 sources"):
            multiply(a, identity(3))

    def test_boundary_arithmetic(self):
        r = rng(7)
        for _ in range(50):
            a = random_diagram(r, max_events=12)
            b = random_diagram(r, m=a.n, max_events=12)
            p = multiply(a, b)
            assert (p.m, p.n) == (a.m, b.n)

    @pytest.mark.parametrize("seed", range(25))
    def test_product_matches_stacked_word_oracle(self, seed):
        # independent route: concatenate the slice words, then reduce with a
        # randomized redex order
        r = rng(seed)
        a = random_diagram(r, max_events=12)
        b = random_diagram(r, m=a.n, max_events=12)
        stacked = SliceWord(a.m, a.to_slices().events + b.to_slices().events)
        oracle = reduce(from_slices(stacked), rng=rng(seed + 999))
        assert canonical_encoding(multiply(a, b)) == canonical_encoding(oracle)

    @pytest.mark.parametrize("seed", range(25))
    def test_inverse_cancels(self, seed):
        r = rng(seed * 3 + 1)
        a = random_diagram(r, max_events=16)
        assert equivalent(multiply(a, invert(a)), identity(a.m))
        assert equivalent(multiply(invert(a), a), identity(a.n))

    @pytest.mark.parametrize("seed", range(15))
    def test_associativity(self, seed):
        r = rng(seed + 500)
        a = random_diagram(r, max_events=10)
        b = random_diagram(r, m=a.n, max_events=10)
        c = random_diagram(r, m=b.n, max_events=10)
        assert equivalent(multiply(multiply(a, b), c), multiply(a, multiply(b, c)))

    @pytest.mark.parametrize("reduce_a", [False, True])
    @pytest.mark.parametrize("reduce_b", [False, True])
    def test_product_matches_reduced_stack(self, reduce_a, reduce_b):
        # the seam-only seed is valid only for reduced factors; raw factors
        # must still reduce completely
        r = rng(70 + 2 * reduce_a + reduce_b)
        for _ in range(60):
            a = random_diagram(r, max_events=14)
            b = random_diagram(r, m=a.n, max_events=14)
            if reduce_a:
                a = reduce(a)
            if reduce_b:
                b = reduce(b)
            stacked = SliceWord(a.m, a.to_slices().events + b.to_slices().events)
            p = multiply(a, b)
            assert p == reduce(from_slices(stacked))
            assert is_reduced(from_slices(p.to_slices()))

    def test_identities_are_units(self):
        r = rng(11)
        for _ in range(20):
            a = random_diagram(r, max_events=12)
            assert equivalent(multiply(identity(a.m), a), a)
            assert equivalent(multiply(a, identity(a.n)), a)


class TestInvert:
    def test_trivial(self):
        assert invert(identity(1)) == identity(1)

    def test_single_caret_reflects(self):
        assert invert(from_slices(SliceWord(1, (S(1),)))) == from_slices(
            SliceWord(2, (M(1),))
        )

    @given(slice_words())
    @settings(max_examples=120)
    def test_involution(self, w):
        d = from_slices(w)
        assert canonical_encoding(invert(invert(d))) == canonical_encoding(d)
        assert (invert(d).m, invert(d).n) == (d.n, d.m)


class TestEncoding:
    def test_reduced_examples_share_encodings(self):
        assert canonical_encoding(
            from_slices(SliceWord(1, (S(1), M(1))))
        ) == canonical_encoding(identity(1))

    def test_sink_counts_distinguish(self):
        a = from_slices(SliceWord(1, (S(1),)))
        b = from_slices(SliceWord(1, (S(1), S(1))))
        assert canonical_encoding(a) != canonical_encoding(b)

    @pytest.mark.parametrize("seed", range(40))
    def test_cancelling_pair_insertion_is_invisible(self, seed):
        r = rng(seed)
        w = random_slice_word(r, max_events=14)
        # splice a split immediately undone by its merge at a random time
        cut = r.randint(0, len(w.events))
        count = w.sources
        for tag, _ in w.events[:cut]:
            count += 1 if tag == "S" else -1
        i = r.randint(1, count)
        spliced = SliceWord(w.sources, w.events[:cut] + (S(i), M(i)) + w.events[cut:])
        assert equivalent(from_slices(spliced), from_slices(w))
        assert canonical_encoding(from_slices(spliced)) == canonical_encoding(
            from_slices(w)
        )
