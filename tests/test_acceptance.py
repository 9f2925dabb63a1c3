"""Acceptance suite: every criterion at its stated scale, exact arithmetic.

One test per criterion; each prints a PASS/FAIL line (visible under
``pytest -s``).  All randomness is seeded, all comparisons are exact
rational equality, and every tolerance is zero.
"""

import functools
import random
import time
from fractions import Fraction

from fstrands.configspace import (
    canonicalize_cf,
    config_map,
    config_pairs,
    df_section,
    is_in_cf,
    is_in_df,
    retract,
    retract_path,
)
from fstrands.cubes import (
    ComplexVertex,
    cube_from_forest,
    elementary_forests_at,
    holonomy,
    left_act,
    leq,
    orbit_key,
    parameterize,
    upper_bound,
)
from fstrands.diagrams import (
    canonical_encoding,
    equivalent,
    identity,
    invert,
    multiply,
    reduce,
)
from fstrands.forests import (
    EDGE,
    canonicalize_generalized,
    random_gmove,
)
from fstrands.thompson import (
    X0,
    X1,
    PLMap,
    diagram_to_tree_pair,
    from_word,
    pl_compose,
    pl_eq,
    to_pl,
    tree_splits,
)

from helpers import (
    random_cf_tuple,
    random_df_point,
    random_diagram,
    random_elementary_forest,
    random_f_word,
    random_generalized,
    random_rational,
    random_vertex_diagram,
    rng,
)


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {name}: PASS")

        return run

    return wrap


@criterion(1, "reduction-confluence")
def test_01_reduction_confluence():
    r = rng(101)
    t0 = time.perf_counter()
    for _ in range(10_000):
        d = random_diagram(r, max_events=40, m_max=6)
        seeds = [r.randrange(2 ** 30) for _ in range(5)]
        encodings = {
            canonical_encoding(reduce(d, rng=random.Random(s))) for s in seeds
        }
        encodings.add(canonical_encoding(reduce(d)))
        assert len(encodings) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"confluence sweep took {elapsed:.1f}s"


@criterion(2, "groupoid-suite")
def test_02_groupoid_suite():
    r = rng(102)
    for _ in range(1000):
        a = random_diagram(r, max_events=10)
        b = random_diagram(r, m=a.n, max_events=10)
        c = random_diagram(r, m=b.n, max_events=10)
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert equivalent(left, right)
        assert (left.m, left.n) == (a.m, c.n)
        ab = multiply(a, b)
        assert (ab.m, ab.n) == (a.m, b.n)
    for _ in range(1000):
        a = random_diagram(r, max_events=14)
        assert equivalent(multiply(a, invert(a)), identity(a.m))


@criterion(3, "word-problem-cross-oracle")
def test_03_cross_oracle():
    r = rng(103)

    def pad_with_trivia(word):
        # a different spelling of the same element
        fillers = ["aA", "Aa", "bB", "Bb"]
        k = r.randrange(len(word) + 1)
        return word[:k] + r.choice(fillers) + word[k:]

    for _ in range(1000):
        wa = random_f_word(r, 12)
        if r.random() < 0.3:
            wb = pad_with_trivia(wa)
        else:
            wb = random_f_word(r, 12)
        a, b = from_word(wa), from_word(wb)
        assert (a == b) == pl_eq(to_pl(a), to_pl(b))
        assert a.is_identity == pl_eq(to_pl(a), PLMap.identity())

    def comm(u, v):
        inv = lambda w: w.swapcase()[::-1]
        return u + v + inv(u) + inv(v)

    for relator in (comm("aB", "Aba"), comm("aB", "AAbaa")):
        assert from_word(relator).is_identity
        assert pl_eq(to_pl(from_word(relator)), PLMap.identity())

    for _ in range(1000):
        a = from_word(random_f_word(r, 8))
        b = from_word(random_f_word(r, 8))
        assert pl_eq(to_pl(a * b), pl_compose(to_pl(a), to_pl(b)))


@criterion(4, "config-map-well-defined")
def test_04_config_map_well_defined():
    r = rng(104)
    for _ in range(1000):
        g = random_generalized(r, max_carets=8)
        expected = canonicalize_cf(config_map(g))
        h = g
        for _ in range(5):
            h = random_gmove(h, r)
            assert canonicalize_cf(config_map(h)) == expected


@criterion(5, "formula-identities")
def test_05_formula_identities():
    r = rng(105)

    def check(g):
        pairs = config_pairs(g)
        flat = config_map(g)
        assert flat[0] == 1
        for i in range(len(pairs) - 1):
            assert pairs[i + 1][2] - pairs[i][3] == 1
        for kind, w, left, right in pairs:
            gap = right - left
            if kind == "S":
                assert gap == w
            elif kind == "M":
                assert gap == 1 - w
            else:
                assert gap == 0
            if kind != EDGE:
                assert gap in (1, w, 1 - w)
        assert is_in_cf(flat)
        assert is_in_df(flat)

    for _ in range(700):
        check(random_generalized(r, max_carets=8, open_unit=False))
    for _ in range(300):
        g = random_generalized(r, max_carets=8)
        check(g)
        check(random_gmove(g, r))
        check(canonicalize_generalized(g))


@criterion(6, "image-section-round-trip")
def test_06_section_round_trip():
    r = rng(106)
    for _ in range(1000):
        t = random_df_point(r, max_components=10)
        assert is_in_df(t)
        p = df_section(t)
        assert canonicalize_cf(config_map(p)) == t


@criterion(7, "quotient-injectivity")
def test_07_quotient_injectivity():
    r = rng(107)
    for k in range(1000):
        p = canonicalize_generalized(random_generalized(r, max_carets=6))
        if k % 2 == 0:
            g = from_word(random_f_word(r, 6))
            q = canonicalize_generalized(left_act(g, p))
        else:
            q = canonicalize_generalized(random_generalized(r, max_carets=6))
        same_config = canonicalize_cf(config_map(p)) == canonicalize_cf(config_map(q))
        same_key = orbit_key(p) == orbit_key(q)
        assert same_config == same_key

        base_config = canonicalize_cf(config_map(p))
        base_key = orbit_key(p)
        for _ in range(100):
            g = from_word(random_f_word(r, 5))
            moved = canonicalize_generalized(left_act(g, p))
            assert canonicalize_cf(config_map(moved)) == base_config
            assert orbit_key(moved) == base_key


@criterion(8, "parameterization-independence")
def test_08_parameterization_independence():
    r = rng(108)
    done = 0
    while done < 1000:
        v = ComplexVertex(random_vertex_diagram(r, 6))
        forest = random_elementary_forest(r, v.n)
        cube = cube_from_forest(v, forest)
        d = cube.dimension
        if d == 0 or d > 4:
            continue
        w = [random_rational(r, open_unit=True) for _ in range(d)]
        eps1 = tuple(r.randint(0, 1) for _ in range(d))
        eps2 = tuple(r.randint(0, 1) for _ in range(d))
        while eps2 == eps1:
            eps2 = tuple(r.randint(0, 1) for _ in range(d))
        p1 = parameterize(cube, cube.corner(eps1),
                          [x if not e else 1 - x for x, e in zip(w, eps1)])
        p2 = parameterize(cube, cube.corner(eps2),
                          [x if not e else 1 - x for x, e in zip(w, eps2)])
        assert p1 == p2
        done += 1


@criterion(9, "retraction")
def test_09_retraction():
    r = rng(109)
    for _ in range(1000):
        t = random_cf_tuple(r, r.randint(1, 20))
        out = retract(t)
        assert is_in_cf(out) and is_in_df(out)
        assert retract_path(t, 0) == t
        assert retract_path(t, 1) == out
        for k in range(1, 33):
            assert is_in_cf(retract_path(t, Fraction(k, 32)))
        assert canonicalize_cf(retract(t)) == retract(canonicalize_cf(t))
    for n in (1, 5, 20):
        fixed = tuple(Fraction(k) for k in range(1, n + 1))
        assert retract(fixed) == fixed


@criterion(10, "upper-bounds")
def test_10_upper_bounds():
    r = rng(110)
    for _ in range(1000):
        x = ComplexVertex(random_vertex_diagram(r, 8))
        y = ComplexVertex(random_vertex_diagram(r, 8))
        z = upper_bound(x, y)
        assert leq(x, z) and leq(y, z)


@criterion(11, "enumeration-counts")
def test_11_enumeration_counts():
    counts = {0: 1}
    for n in range(1, 11):
        forests = list(elementary_forests_at(n))
        seen = {f.components for f in forests}
        assert len(seen) == len(forests)
        counts[n] = len(forests)
        splits_only = sum(1 for f in forests if "M" not in f.components)
        assert splits_only == 2 ** n
    assert [counts[n] for n in range(6)] == [1, 2, 5, 12, 29, 70]
    for n in range(2, 11):
        assert counts[n] == 2 * counts[n - 1] + counts[n - 2]


@criterion(12, "holonomy")
def test_12_holonomy():
    from fstrands.forests import ElementaryForest

    assert holonomy([ElementaryForest(("S",)), ElementaryForest(("M",))]).is_identity

    def caret_moves(g):
        pair = diagram_to_tree_pair(g)
        moves = []
        count = 1
        for _tag, i in tree_splits(pair.domain):
            moves.append(ElementaryForest(("E",) * (i - 1) + ("S",) + ("E",) * (count - i)))
            count += 1
        for _tag, i in reversed(tree_splits(pair.range)):
            moves.append(ElementaryForest(("E",) * (i - 1) + ("M",) + ("E",) * (count - i - 1)))
            count -= 1
        return moves

    for gen in (X0, X1):
        got = holonomy(caret_moves(gen))
        assert pl_eq(to_pl(got), to_pl(gen))

    r = rng(112)
    for _ in range(100):
        g = from_word(random_f_word(r, 6))
        loop = caret_moves(g)
        assert holonomy(loop) == g
        reversed_loop = [(-1, f) for f in reversed(loop)]
        assert holonomy(reversed_loop) == ~g
