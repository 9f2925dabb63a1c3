"""Configuration tuples, the strand-position map, and the retraction."""

from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from fstrands import configspace
from fstrands.configspace import (
    as_config,
    canonicalize_cf,
    config_map,
    config_pairs,
    df_section,
    expand,
    is_in_cf,
    is_in_df,
    key_config,
    require_cf,
    retract,
    retract_path,
)
from fstrands.cubes import OrbitKey, orbit_key
from fstrands.diagrams import S, SliceWord, from_slices, identity
from fstrands.errors import DomainError
from fstrands.forests import (
    GeneralizedStrandDiagram,
    WeightedElementaryForest,
    canonicalize_generalized,
    random_gmove,
)

from helpers import (
    assert_as_if_checked,
    random_cf_tuple,
    random_df_point,
    random_generalized,
    reference_canonicalize_cf,
    reference_config_pairs,
    reference_df_section,
    reference_expand,
    reference_is_in_cf,
    reference_is_in_df,
    reference_require_cf,
    reference_retract,
    reference_retract_path,
    rng,
)
from helpers import weighted_forest as wf

F = Fraction


def cfg(*xs):
    return as_config(xs)


class TestMembership:
    def test_examples(self):
        assert is_in_cf(cfg(1, 1, 2))
        assert not is_in_cf(cfg(1, 1, F(3, 2)))
        assert is_in_cf(cfg(5))

    def test_decreasing_rejected(self):
        assert not is_in_cf(cfg(2, 1))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            is_in_cf(())

    @pytest.mark.parametrize("seed", range(30))
    def test_generator_soundness(self, seed):
        r = rng(seed)
        assert is_in_cf(random_cf_tuple(r, r.randint(1, 12)))


class TestCanonicalizeExpand:
    def test_collapse_example(self):
        assert canonicalize_cf(cfg(1, 1, 2)) == cfg(1, 2)

    def test_no_duplicates_is_fixed(self):
        assert canonicalize_cf(cfg(1, 2, 3)) == cfg(1, 2, 3)

    def test_expand_left_and_right(self):
        assert expand(cfg(1, 2), 1) == cfg(1, 1, 2)
        assert expand(cfg(1, 2), 2) == cfg(1, 2, 2)

    def test_expand_too_close_rejected(self):
        with pytest.raises(DomainError, match="entry 1"):
            expand(cfg(1, F(3, 2)), 1)

    @pytest.mark.parametrize("seed", range(40))
    def test_expand_then_canonicalize_round_trip(self, seed):
        r = rng(seed)
        t = canonicalize_cf(random_cf_tuple(r, r.randint(1, 10)))
        spots = [
            i
            for i in range(1, len(t) + 1)
            if (i == 1 or t[i - 1] - t[i - 2] >= 1)
            and (i == len(t) or t[i] - t[i - 1] >= 1)
        ]
        if not spots:
            return
        i = r.choice(spots)
        grown = expand(t, i)
        assert is_in_cf(grown)
        assert canonicalize_cf(grown) == t


class TestContract:
    """Each C_n is convex, so straight lines contract it onto (1, ..., n)."""

    @pytest.mark.parametrize("seed", range(25))
    def test_stays_inside(self, seed):
        # the segment from a configuration to (1, ..., n), and to another
        # configuration of the same length, stays in C_n
        r = rng(seed)
        n = r.randint(1, 10)
        t = random_cf_tuple(r, n)
        for u in (cfg(*range(1, n + 1)), random_cf_tuple(r, n)):
            for k in range(9):
                s = F(k, 8)
                assert is_in_cf(tuple((1 - s) * a + s * b for a, b in zip(t, u)))


class TestConfigMap:
    def test_vertex_maps_to_integers(self):
        base = from_slices(SliceWord(1, (S(1), S(2))))
        p = GeneralizedStrandDiagram.vertex(base)
        assert config_map(p) == cfg(1, 1, 2, 2, 3, 3)
        assert canonicalize_cf(config_map(p)) == cfg(1, 2, 3)

    def test_single_split_weight(self):
        w = F(2, 5)
        p = GeneralizedStrandDiagram(identity(1), wf(("S", w)))
        assert config_map(p) == cfg(1, 1 + w)

    def test_two_splits_on_two_strands(self):
        a, b = F(1, 3), F(1, 5)
        base = from_slices(SliceWord(1, (S(1),)))
        p = GeneralizedStrandDiagram(base, wf(("S", a), ("S", b)))
        assert config_map(p) == cfg(1, 1 + a, 2 + a, 2 + a + b)

    def test_merge_contributes_complement(self):
        base = from_slices(SliceWord(1, (S(1), S(2))))
        p = GeneralizedStrandDiagram(base, wf(("M", F(1, 4)), "E"))
        # first component spans 1 .. 1 + (1 - 1/4); edge follows one unit on
        assert config_map(p) == cfg(1, F(7, 4), F(11, 4), F(11, 4))

    @pytest.mark.parametrize("seed", range(60))
    def test_formula_identities(self, seed):
        r = rng(seed)
        g = random_generalized(r, max_carets=8, open_unit=False)
        pairs = config_pairs(g)
        flat = config_map(g)
        assert flat[0] == 1
        for i in range(len(pairs) - 1):
            assert pairs[i + 1][2] - pairs[i][3] == 1
        for kind, w, left, right in pairs:
            if kind == "S":
                assert right - left == w
            elif kind == "M":
                assert right - left == 1 - w
            else:
                assert right == left
        assert is_in_cf(flat)
        assert is_in_df(flat)

    @pytest.mark.parametrize("seed", range(60))
    def test_invariant_under_class_moves(self, seed):
        r = rng(seed + 900)
        g = random_generalized(r, max_carets=8)
        expected = canonicalize_cf(config_map(g))
        h = g
        for _ in range(5):
            h = random_gmove(h, r)
            assert canonicalize_cf(config_map(h)) == expected
        assert canonicalize_cf(config_map(canonicalize_generalized(h))) == expected


class TestDfMembership:
    def test_examples(self):
        assert is_in_df(cfg(1, 2, 3))
        assert is_in_df(cfg(1, F(3, 2), F(5, 2)))
        assert not is_in_df(cfg(1, F(3, 2), 2))

    def test_requires_first_entry_one(self):
        assert not is_in_df(cfg(2, 3))

    def test_boundary_flanks_are_vacuous(self):
        # a short first gap with no left flank is fine
        assert is_in_df(cfg(1, F(4, 3), F(7, 3)))


class TestSection:
    def test_integer_point_gives_vertex(self):
        p = df_section(cfg(1, 2, 3))
        assert p.base.n == 3
        assert all(k == "E" for k in p.forest.kinds)
        assert canonicalize_cf(config_map(p)) == cfg(1, 2, 3)

    def test_short_gap_becomes_split(self):
        p = df_section(cfg(1, F(3, 2), F(5, 2)))
        assert p.forest == wf(("S", F(1, 2)), "E")
        assert p.base.n == 2
        assert config_map(p) == cfg(1, F(3, 2), F(5, 2), F(5, 2))

    def test_rejects_non_image_points(self):
        with pytest.raises(DomainError):
            df_section(cfg(1, 3))

    def test_checks_its_input_once(self, monkeypatch):
        # every check of a configuration scales it to integer numerators first
        calls = []
        real = configspace._scaled

        def spy(t, *args, **kwargs):
            calls.append(t)
            return real(t, *args, **kwargs)

        monkeypatch.setattr(configspace, "_scaled", spy)
        r = rng(5)
        points = [random_df_point(r) for _ in range(20)]
        for t in points:
            df_section(t)
        assert len(calls) == len(points)
        calls.clear()
        with pytest.raises(DomainError, match="not in the image"):
            df_section(cfg(1, 3))
        assert len(calls) == 1

    def test_collapses_duplicates_first(self):
        p = df_section(cfg(1, 1, 2))
        assert canonicalize_cf(config_map(p)) == cfg(1, 2)

    @pytest.mark.parametrize("seed", range(60))
    def test_exact_round_trip(self, seed):
        r = rng(seed)
        t = random_df_point(r)
        assert is_in_df(t)
        p = df_section(t)
        assert_as_if_checked(p)
        assert canonicalize_cf(config_map(p)) == t
        assert canonicalize_generalized(p) == p

    @pytest.mark.parametrize("seed", range(30))
    def test_section_inverts_orbit_key(self, seed):
        # the key's configuration is the canonical image of any
        # representative, and reconstructing from it recovers the key
        r = rng(seed)
        g = random_generalized(r, max_carets=8, open_unit=False)
        for _ in range(r.randint(0, 6)):
            g = random_gmove(g, r)
        key = orbit_key(g)
        assert key_config(key) == canonicalize_cf(config_map(g))
        p = df_section(key_config(key))
        assert_as_if_checked(p)
        assert orbit_key(p) == key

    @pytest.mark.parametrize("size", range(1, 9))
    def test_every_small_cell(self, size):
        # every cell (n, K, w) with n + |K| = size and weights in {1/4, 1/2, 3/4}
        cells = 0
        for n in range(1, size + 1):
            for splits in combinations(range(n), size - n):
                for ws in product((F(1, 4), F(1, 2), F(3, 4)), repeat=size - n):
                    w = dict(zip(splits, ws))
                    key = OrbitKey(tuple(("S", w[i]) if i in w else "E" for i in range(n)))
                    t = key_config(key)
                    assert is_in_df(t)
                    p = df_section(t)
                    assert_as_if_checked(p)
                    assert orbit_key(p) == key
                    assert canonicalize_cf(config_map(p)) == t
                    cells += 1
        assert cells == sum(comb(n, size - n) * 3 ** (size - n) for n in range(1, size + 1))


class TestRetract:
    def test_fixes_integer_points(self):
        for n in (1, 3, 7):
            t = cfg(*range(1, n + 1))
            assert retract(t) == t

    def test_worked_example(self):
        assert retract(cfg(3, 7)) == cfg(1, 2)

    def test_duplicate_example(self):
        assert retract(cfg(1, 1, 2)) == cfg(1, 1, 2)

    @pytest.mark.parametrize("seed", range(60))
    def test_lands_in_image(self, seed):
        r = rng(seed)
        t = random_cf_tuple(r, r.randint(1, 16))
        out = retract(t)
        assert is_in_cf(out)
        assert is_in_df(out)

    @pytest.mark.parametrize("seed", range(40))
    def test_commutes_with_canonicalize(self, seed):
        r = rng(seed + 50)
        t = random_cf_tuple(r, r.randint(1, 12))
        assert canonicalize_cf(retract(t)) == retract(canonicalize_cf(t))

    def test_not_idempotent(self):
        assert retract(cfg(0, F(1, 4))) == cfg(1, F(3, 2))
        assert retract(cfg(1, F(3, 2))) == cfg(1, 2)

    @pytest.mark.parametrize("seed", range(40))
    def test_straight_line_stays_in_image(self, seed):
        # on the image, retract is homotopic to the identity inside it
        t = random_df_point(rng(seed + 200))
        target = retract(t)
        for k in range(33):
            u = F(k, 32)
            assert is_in_df(tuple((1 - u) * a + u * b for a, b in zip(t, target)))


class TestRetractPath:
    def test_endpoints(self):
        t = cfg(3, 7)
        assert retract_path(t, 0) == t
        assert retract_path(t, 1) == retract(t)

    def test_scaling_phase_end(self):
        assert retract_path(cfg(3, 7), F(1, 3)) == cfg(6, 14)

    def test_translation_phase_end(self):
        assert retract_path(cfg(3, 7), F(2, 3)) == cfg(1, 9)

    def test_out_of_range_time(self):
        with pytest.raises(DomainError):
            retract_path(cfg(1), F(3, 2))

    @pytest.mark.parametrize("seed", range(40))
    def test_every_sample_stays_inside(self, seed):
        r = rng(seed)
        t = random_cf_tuple(r, r.randint(1, 12))
        for k in range(33):
            assert is_in_cf(retract_path(t, F(k, 32)))


def _edge_tuples(r, count):
    """Seeded tuples that start anywhere in [-5, 5] and step by gaps of
    exactly 0, 1/2 and 1 or by random rationals over denominators up to
    2^70 and 3^40, mixed within a tuple.  Most are configurations; the
    rest crowd three entries into less than a unit or decrease."""
    dens = (1, 2, 3, 8, 2 ** 70, 3 ** 40)
    out = []
    for _ in range(count):
        den = r.choice(dens)
        t = [F(r.randint(-5 * den, 5 * den), den)]
        prev = F(2)
        for _ in range(r.randint(0, 9)):
            den = r.choice(dens)
            gap = r.choice((F(0), F(1, 2), F(1), F(r.randint(0, 2 * den), den)))
            if prev + gap < 1 and r.random() < 0.9:
                gap = 1 - prev
            elif r.random() < 0.02:
                gap = -F(1, den)
            t.append(t[-1] + gap)
            prev = gap
        out.append(tuple(t))
    return out


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the message of the ``DomainError`` it raises."""
    try:
        out = fn(*args)
    except DomainError as e:
        return "DomainError", str(e)
    if isinstance(out, tuple):
        assert all(type(x) is Fraction for x in out)
    return out


class TestIntegerPathMatchesFractionReference:
    """Each function scales its tuple to integer numerators over the lcm
    of the denominators; the ``Fraction`` code it replaced, kept in
    ``tests/helpers.py``, gives the same values and the same errors."""

    TIMES = (F(0), F(1, 3), F(2, 3), F(1), F(1, 2), F(5, 6), F(1, 2 ** 70),
             1 - F(1, 3 ** 40), "1/3", 1)
    BAD_TIMES = (F(-1, 3), F(4, 3), -1, 2, F(1) + F(1, 2 ** 70))

    def same(self, fn, ref, *args):
        assert _outcome(fn, *args) == _outcome(ref, *args), args

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_tuples(self, seed):
        r = rng(6100 + seed)
        configs = 0
        for t in _edge_tuples(r, 60):
            assert is_in_cf(t) == reference_is_in_cf(t)
            configs += reference_is_in_cf(t)
            self.same(require_cf, reference_require_cf, t)
            self.same(canonicalize_cf, reference_canonicalize_cf, t)
            self.same(is_in_df, reference_is_in_df, t)
            self.same(df_section, reference_df_section, t)
            self.same(retract, reference_retract, t)
            for i in range(len(t) + 2):
                self.same(expand, reference_expand, t, i)
            for s in self.TIMES + self.BAD_TIMES:
                self.same(retract_path, reference_retract_path, t, s)
            if reference_is_in_cf(t):
                out = retract(t)
                self.same(df_section, reference_df_section, out)
                assert is_in_df(out) and reference_is_in_df(out)
        assert 30 <= configs < 60  # non-configurations too

    @pytest.mark.parametrize("seed", range(4))
    def test_image_points(self, seed):
        # image points, some ending in a short gap over 2^70 or 3^40, and
        # with the first entry duplicated where that is legal
        r = rng(6200 + seed)
        for _ in range(40):
            t = random_df_point(r)
            den = r.choice((2 ** 70, 3 ** 40))
            for u in (t, t + (t[-1] + 1, t[-1] + 1 + F(r.randint(1, den - 1), den))):
                assert is_in_df(u) and reference_is_in_df(u)
                self.same(df_section, reference_df_section, u)
                if len(u) == 1 or u[1] - u[0] == 1:
                    self.same(df_section, reference_df_section, u[:1] + u)

    def test_empty_tuple(self):
        for fn in (is_in_cf, require_cf, canonicalize_cf, is_in_df, retract):
            with pytest.raises(DomainError, match="at least one entry"):
                fn(())
        self.same(retract_path, reference_retract_path, (), F(1, 2))

    @pytest.mark.parametrize("seed", range(4))
    def test_config_pairs(self, seed):
        r = rng(6300 + seed)
        for _ in range(40):
            g = random_generalized(r, max_carets=8, open_unit=False)
            if r.random() < 0.5:  # reweight over large coprime denominators
                den = r.choice((2 ** 70, 3 ** 40))
                g = GeneralizedStrandDiagram(g.base, WeightedElementaryForest(
                    g.forest.kinds,
                    tuple(None if w is None else F(r.randint(0, den), den)
                          for w in g.forest.weights)))
            assert config_pairs(g) == reference_config_pairs(g)
            assert config_map(g) == tuple(
                x for _k, _w, left, right in reference_config_pairs(g) for x in (left, right))
