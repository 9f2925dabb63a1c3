"""Strand diagram construction, linearization, reduction, groupoid ops."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstrands import diagrams
from fstrands.diagrams import (
    MERGE,
    SPLIT,
    M,
    S,
    SliceWord,
    StrandDiagram,
    canonical_encoding,
    encode_word,
    equivalent,
    from_slices,
    identity,
    invert,
    is_reduced,
    multiply,
    multiply_row,
    reduce,
)
from fstrands.errors import CompositionError, DomainError, InvariantViolation, SliceWordError
from fstrands.forests import EDGE

from helpers import (
    check_tables,
    commutation_closure,
    random_diagram,
    random_elementary_forest,
    random_slice_word,
    random_vertex_diagram,
    reference_build,
    reference_greedy,
    reference_is_reduced,
    reference_reduce,
    reference_signature,
    reference_stack,
    rng,
    row_slice_word,
    split_count,
    structural_signature,
)


def caret(n, kind, pos):
    """The n-strand forest diagram with a single ``kind`` caret at strand ``pos``."""
    last = n - (kind == MERGE)
    return multiply_row(identity(n), (EDGE,) * (pos - 1) + (kind,) + (EDGE,) * (last - pos))


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
        assert split_count(d) == 1 and d.merge_count == 0

    def test_mixed_word_boundary_counts(self):
        # hand simulation: 3 strands, split #2 (count 4), merge #1 (count 3)
        d = from_slices(SliceWord(3, (S(2), M(1))))
        assert (d.m, d.n) == (3, 3)
        assert split_count(d) == 1 and d.merge_count == 1
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

    @pytest.mark.parametrize("seed", range(10))
    def test_word_equals_a_validated_slice_word(self, seed):
        # to_slices skips the range checks; the checked constructor accepts
        # the same events and counts the same sinks, on raw and reduced diagrams
        r = rng(seed + 2200)
        for _ in range(60):
            raw = random_diagram(r, max_events=30)
            for d in (raw, reduce(raw)):
                w = d.to_slices()
                checked = SliceWord(d.m, w.events)
                assert w == checked and type(w.events) is tuple
                assert w.sinks == checked.sinks == d.n

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


def _tables(d):
    return d._kind, d._down, d._up, d._bot, d._slots


def _raw_words():
    r = rng(7500)
    return [random_slice_word(r, max_events=40, m_max=4) for _ in range(500)]


class TestIsReducedAsksTheReducer:
    """``is_reduced`` is ``reduce(d) is d``; the two cancellation rules are
    checked against the tuple-endpoint reference scan."""

    WORDS = _raw_words()

    def test_agrees_with_the_reference_scan(self):
        got = [is_reduced(from_slices(w)) for w in self.WORDS]
        assert got == [reference_is_reduced(w) for w in self.WORDS]
        assert 0 < sum(got) < len(got)

    def test_reduce_returns_its_input_exactly_when_reduced(self):
        for w in self.WORDS:
            d = from_slices(w)
            assert (reduce(d) is d) == is_reduced(from_slices(w))

    def test_is_reduced_edits_no_reducible_input(self):
        for w in self.WORDS:
            d = from_slices(w)
            before = copy.deepcopy(_tables(d))
            if not is_reduced(d):
                assert (_tables(d), d._reduced) == (before, False)

    def test_is_reduced_flags_a_reduced_input(self):
        for w in self.WORDS:
            d = from_slices(w)
            assert not d._reduced
            assert is_reduced(d) == d._reduced


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


def random_chain(r, length):
    """``length`` composable diagrams of mixed arity, each raw or reduced,
    with identity factors among them."""
    chain = []
    m = r.randint(1, 4)
    for _ in range(length):
        if r.random() < 0.2:
            d = identity(m)
        else:
            d = random_diagram(r, m=m, max_events=10)
            if r.random() < 0.5:
                d = reduce(d)
        chain.append(d)
        m = d.n
    return chain


class TestStack:
    """``diagrams._stack`` stacks a chain of factors and reduces it once."""

    @pytest.mark.parametrize("seed", range(40))
    def test_chain_equals_left_fold_of_multiply(self, seed):
        r = rng(7700 + seed)
        chain = random_chain(r, r.randint(3, 6))
        fold = chain[0]
        for d in chain[1:]:
            fold = multiply(fold, d)
        tables = [(dict(d._kind), dict(d._down), dict(d._up), list(d._bot)) for d in chain]
        p = diagrams._stack(chain)
        check_tables(p)
        assert (p.m, p.n) == (chain[0].m, chain[-1].n)
        assert p.to_slices() == fold.to_slices()
        assert is_reduced(from_slices(p.to_slices()))
        # the factors are copied, never edited
        assert tables == [(d._kind, d._down, d._up, d._bot) for d in chain]

    def test_mismatched_third_factor_raises(self):
        r = rng(7760)
        for _ in range(30):
            a, b = random_chain(r, 2)
            c = random_diagram(r, m=b.n + r.randint(1, 3), max_events=6)
            with pytest.raises(CompositionError,
                               match=f"{b.n} sinks, right factor has {c.m} sources"):
                diagrams._stack([a, b, c])


class TestEquality:
    def test_vertex_counts_apart_compare_unequal_without_linearizing(self):
        r = rng(7500)
        pairs = [(from_slices(SliceWord(1, (S(1), M(1)))), identity(1))]
        while len(pairs) < 100:
            a = random_diagram(r, max_events=20, m_max=3)
            b = random_diagram(r, m=a.m, max_events=20)
            if a.n == b.n and a.vertex_count != b.vertex_count:
                pairs.append((a, b))
        for a, b in pairs:
            assert a != b and b != a
            assert a._word is None and b._word is None

    def test_canonical_encoding_caches_no_slice_word(self):
        r = rng(7550)
        for _ in range(60):
            d = reduce(random_diagram(r, max_events=20, m_max=3))
            enc = canonical_encoding(d)
            assert d._word is None
            assert enc == encode_word(d.to_slices())
            assert canonical_encoding(d) == enc  # read off the cached word

    def test_equal_vertex_counts_still_linearize(self):
        a = from_slices(SliceWord(2, (S(1), M(2))))
        b = from_slices(SliceWord(2, (S(2), M(1))))
        assert a.vertex_count == b.vertex_count
        assert a != b and a._word is not None and b._word is not None
        assert a == from_slices(SliceWord(2, (S(1), M(2))))


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


def _matches_reference(d, ref) -> None:
    check_tables(d)
    assert d.to_slices().events == reference_greedy(ref)
    assert d.vertex_count == len(ref[2])
    assert structural_signature(d) == reference_signature(ref)


class TestIntCoreAgainstReference:
    """The int-endpoint core against the tuple-endpoint reference in
    ``helpers``: same canonical words, vertex counts and fingerprints,
    and consistent carried tables after every operation."""

    @pytest.mark.parametrize("block", range(10))
    def test_build_reduce_invert(self, block):
        r = rng(7000 + block)
        for _ in range(50):
            w = random_slice_word(r, max_events=40, m_max=4)
            d = from_slices(w)
            ref = reference_build(w)
            _matches_reference(d, ref)
            red = reduce(d)
            _matches_reference(red, reference_reduce(ref))
            _matches_reference(reduce(d, rng=random.Random(r.randrange(2 ** 30))),
                               reference_reduce(ref))
            _matches_reference(d, ref)  # reduce copies, never edits its input
            flipped = tuple((M if tag == SPLIT else S)(i)
                            for tag, i in reversed(reference_greedy(ref)))
            inv = invert(d)
            _matches_reference(inv, reference_reduce(reference_build(SliceWord(d.n, flipped))))

    @pytest.mark.parametrize("reduce_b", [False, True])
    @pytest.mark.parametrize("reduce_a", [False, True])
    def test_products(self, reduce_a, reduce_b):
        r = rng(7100 + 2 * reduce_a + reduce_b)
        for _ in range(60):
            wa = random_slice_word(r, max_events=30, m_max=4)
            wb = random_slice_word(r, m=wa.sinks, max_events=30)
            a, b = from_slices(wa), from_slices(wb)
            if reduce_a:
                a = reduce(a)
            if reduce_b:
                b = reduce(b)
            ref_a, ref_b = reference_build(wa), reference_build(wb)
            if reduce_a:
                ref_a = reference_reduce(ref_a)
            if reduce_b:
                ref_b = reference_reduce(ref_b)
            p = multiply(a, b)
            _matches_reference(p, reference_reduce(reference_stack(ref_a, ref_b)))
            _matches_reference(a, ref_a)
            _matches_reference(b, ref_b)
            q = multiply(p, invert(b))
            _matches_reference(q, reference_reduce(ref_a))

    def test_chained_products_keep_tables(self):
        r = rng(7200)
        d = random_vertex_diagram(r)
        for _ in range(200):
            kind = r.choice((SPLIT, MERGE)) if d.n > 1 else SPLIT
            pos = r.randint(1, d.n - (kind == MERGE))
            d = multiply(d, caret(d.n, kind, pos))
            check_tables(d)
            assert d._reduced and is_reduced(StrandDiagram(
                d.m, d.n, dict(d._kind), dict(d._down), dict(d._up), list(d._bot), d._slots))

    def test_single_caret_product_seeds_at_most_two_anchors(self, monkeypatch):
        seen = []
        real = diagrams._reduce_maps

        def spy(d, rng, seeds=None):
            seen.append(None if seeds is None else len(seeds))
            return real(d, rng, seeds)

        monkeypatch.setattr(diagrams, "_reduce_maps", spy)
        r = rng(7300)
        for _ in range(100):
            v = random_vertex_diagram(r)
            for kind in (SPLIT, MERGE):
                if kind == MERGE and v.n < 2:
                    continue
                c = caret(v.n, kind, r.randint(1, v.n - (kind == MERGE)))
                seen.clear()
                multiply(v, c)
                assert len(seen) == 1 and seen[0] is not None and seen[0] <= 2


class TestMultiplyRow:
    """``multiply_row`` against ``multiply`` by the row's diagram built from
    its slice word, which does not pass through ``multiply_row``."""

    @staticmethod
    def reference(a, row):
        return multiply(a, from_slices(row_slice_word(row)))

    @staticmethod
    def assert_same(a, row):
        got = multiply_row(a, row)
        check_tables(got)
        ref = TestMultiplyRow.reference(a, row)
        assert (got._kind, got._down, got._up, got._bot, got._slots, got._reduced) == (
            ref._kind, ref._down, ref._up, ref._bot, ref._slots, ref._reduced)
        assert got.to_slices() == ref.to_slices()

    @staticmethod
    def left_factors(seed, count):
        """Seeded left factors with at most 9 sinks: reduced and flagged
        (vertices and reduced diagrams), and raw ones left unflagged."""
        r = rng(seed)
        out = []
        while len(out) < count:
            kind = len(out) % 3
            if kind == 0:
                a = random_vertex_diagram(r, 14)
            elif kind == 1:
                a = reduce(random_diagram(r, max_events=20, m_max=4))
            else:
                a = random_diagram(r, max_events=20, m_max=4)
                assert not a._reduced
            if a.n <= 9:
                out.append(a)
        return out

    @pytest.mark.parametrize("block", range(4))
    def test_seeded_rows_match_multiply(self, block):
        r = rng(7400 + block)
        for a in self.left_factors(7410 + block, 120):
            for _ in range(3):
                self.assert_same(a, random_elementary_forest(r, a.n).components)

    def test_every_single_caret_matches_multiply(self):
        by_n = {}
        for a in self.left_factors(7500, 400):
            by_n.setdefault(a.n, []).append(a)
        for n in range(1, 9):
            assert len(by_n[n]) >= 3
            for a in by_n[n][:6]:
                for kind, last in ((SPLIT, n), (MERGE, n - 1)):
                    for pos in range(1, last + 1):
                        row = [EDGE] * n
                        row[pos - 1:pos + (kind == MERGE)] = [kind]
                        self.assert_same(a, tuple(row))

    def test_leaves_its_input_alone(self):
        a = random_diagram(rng(7600), m=2, max_events=20)
        before = (dict(a._kind), dict(a._down), dict(a._up), list(a._bot), a._slots, a._reduced)
        multiply_row(a, random_elementary_forest(rng(7601), a.n).components)
        assert before == (a._kind, a._down, a._up, a._bot, a._slots, a._reduced)

    def test_source_count_must_match(self):
        a = identity(3)
        for row in ((EDGE, EDGE), (EDGE, EDGE, EDGE, SPLIT), (EDGE, MERGE, EDGE),
                    (EDGE, EDGE, MERGE), ()):
            with pytest.raises(CompositionError, match="3 sinks"):
                multiply_row(a, row)

    def test_unknown_component(self):
        with pytest.raises(DomainError, match="'X'"):
            multiply_row(identity(3), (EDGE, "X", SPLIT))

    def test_caret_free_row_hands_back_a_flagged_input(self):
        for a in self.left_factors(7700, 30):
            flagged = a._reduced
            row = (EDGE,) * a.n
            if flagged:
                assert multiply_row(a, row) is a
                assert multiply_row(a, list(row)) is a
            else:  # a reduced copy, as from any other row
                self.assert_same(a, row)
                assert multiply_row(a, row) is not a
            # the shortcut checks neither more nor less than the full stacking
            for bad in ((EDGE,) * (a.n + 1), (EDGE,) * (a.n - 1)):
                with pytest.raises(CompositionError, match=f"{a.n} sinks"):
                    multiply_row(a, bad)
            with pytest.raises(DomainError, match="'X'"):
                multiply_row(a, (EDGE,) * (a.n - 1) + ("X",))


class TestWiringChecks:
    """Linearization refuses wirings that no slice word describes."""

    def test_bottom_stubs_out_of_order(self):
        d = StrandDiagram(2, 2, {}, {~0: ~1, ~1: ~0}, {}, [~1, ~0], 0)
        with pytest.raises(InvariantViolation,
                           match=r"out of order in StrandDiagram\(2->2, 0 vertices\)"):
            d.to_slices()

    def test_merge_inputs_not_adjacent(self):
        # stubs 0 and 2 merge while stub 1 runs straight through
        d = StrandDiagram(3, 2, {0: MERGE}, {~0: 0, ~2: 1, ~1: ~0, 0: ~1},
                          {0: ~0, 1: ~2}, [~1, 0], 1)
        with pytest.raises(InvariantViolation,
                           match=r"not adjacent in StrandDiagram\(3->2, 1 vertices\)"):
            d.to_slices()

    def test_cycle_has_no_ready_vertex(self):
        # a merge fed by a split that the merge itself feeds
        d = StrandDiagram(1, 1, {0: MERGE, 1: SPLIT}, {~0: 0, 2: 1, 0: 2, 3: ~0},
                          {0: ~0, 1: 2, 2: 0}, [3], 2)
        with pytest.raises(InvariantViolation,
                           match=r"no ready vertex.* in StrandDiagram\(1->1, 2 vertices\)"):
            d.to_slices()
