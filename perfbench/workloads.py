"""The four closed-loop workloads and their checked ops.

A workload hands out cycles: a fixed multiset of size classes, each
filled with fresh seeded inputs and shuffled.  Because every cycle has
the same mix, throughput and the latency percentiles are stable from one
seed to the next, and the percentiles fall inside a size class rather
than on the edge between two.  Each op calls the library through module
attributes (``thompson.from_word``, not a bound copy), so the tracer's
rebinding reaches it, and returns whether its answer checked out.

Where no answer is known by construction (the cli's cubes and ball
listings and its renderings), the input comes from a fixed pool and the
output is compared with the digest the seed commit produced, stored in
``golden.json``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import gen
from fstrands import cli, configspace, cubes, diagrams, forests, textio, thompson
from fstrands.diagrams import SliceWord
from fstrands.forests import ElementaryForest, GeneralizedStrandDiagram, WeightedElementaryForest

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
IO_DIR = HERE / "out" / "io"


class Op(NamedTuple):
    kind: str
    size: str
    fn: Callable[..., bool]
    args: tuple

    def key(self) -> str:
        return gen.digest((self.kind, self.size, self.args))


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


GOLDEN = load_golden()


def golden_ok(pool: str, index: int, given, output) -> bool:
    """The stored entry was recorded for this very input, with this output."""
    entry = GOLDEN.get(pool, {}).get(str(index))
    return entry == [gen.digest(given), gen.digest(output)]


def _vertex(events) -> cubes.ComplexVertex:
    return cubes.ComplexVertex(diagrams.from_slices(SliceWord(1, events)))


def _generalized(events, kinds, weights) -> GeneralizedStrandDiagram:
    return GeneralizedStrandDiagram(diagrams.from_slices(SliceWord(1, events)),
                                    WeightedElementaryForest(kinds, weights))


# ---------------------------------------------------------------------------
# pools with stored answers


def _pool_rng(name: str) -> random.Random:
    return random.Random(f"fstrands-perfbench-pool-{name}")


def cli_pool() -> list[tuple[str, tuple, str]]:
    """(label, argv, stdin) requests whose output has no known-by-construction
    answer: cubes and ball listings and the renderers."""
    r = _pool_rng("cli")
    out = []
    for k in range(64):
        kind = k % 8
        ev, n = gen.slice_events(r, 1, r.randint(1, 8))
        vtx = gen.diagram_text(1, ev)
        if kind == 0:
            out.append(("cubes", ("cubes", "-", "--max-dim", str(1 + k % 2)), vtx))
        elif kind == 1:
            flags = ("--quotient",) if k % 3 == 0 else ()
            flags += ("--dot",) if k % 2 == 0 else ()
            out.append(("ball", ("ball", "-", str(1 + k % 2)) + flags, vtx))
        elif kind in (2, 3):
            m = r.randint(1, 3)
            ev, _ = gen.slice_events(r, m, r.randint(2, 14))
            out.append(("render.diagram", ("render", "-", "--kind", "diagram"),
                        gen.diagram_text(m, ev)))
        elif kind == 4:
            kinds = gen.forest_kinds(r, n)
            text = vtx + gen.forest_text(kinds, gen.weights_for(r, kinds))
            out.append(("render.generalized", ("render", "-", "--kind", "generalized"),
                        text))
        elif kind == 5:
            out.append(("render.config", ("render", "-", "--kind", "config"),
                        gen.config_text(gen.cf_tuple(r, r.randint(1, 10)))))
        else:
            names = [f"v{i}" for i in range(r.randint(2, 8))]
            edges = "".join(f"{r.choice(names)} -- {r.choice(names)}\n"
                            for _ in range(r.randint(1, 10)))
            fmt = ("--format", "text") if kind == 7 else ()
            out.append(("render.ball", ("render", "-", "--kind", "ball") + fmt, edges))
    return out


def diagram_files() -> list[tuple[str, int, tuple, int]]:
    """(path, m, events, n) of the diagram files that two-input verbs read.

    A file is named by its content and written only when missing:
    rewriting a file in place can cost tens of milliseconds on some file
    systems, which would dwarf the requests themselves.
    """
    r = _pool_rng("files")
    IO_DIR.mkdir(parents=True, exist_ok=True)
    out = []
    for k in range(48):
        m = 1 if k % 2 else r.randint(1, 3)
        ev, n = gen.slice_events(r, m, r.randint(1, 12))
        text = gen.diagram_text(m, ev)
        path = IO_DIR / f"{gen.digest(text)}.diagram"
        if not path.exists():
            path.write_text(text)
        out.append((str(path.relative_to(HERE.parent)), m, ev, n))
    return out


def compute_golden() -> dict:
    """Digests of the library's answers on every pool input."""
    golden: dict = {"cli": {}}
    for i, (_, argv, stdin) in enumerate(cli_pool()):
        golden["cli"][str(i)] = [gen.digest((tuple(argv), stdin)),
                                 gen.digest(cli.run(list(argv), stdin))]
    return golden


# ---------------------------------------------------------------------------
# words: the word problem on long words


def op_word(w: str, padded: str, x: str) -> bool:
    g = thompson.from_word(w)
    if thompson.from_word(padded) != g:
        return False
    if g * thompson.from_word(x) == g:
        return False
    return (g * ~g).is_identity


class Words:
    """Decide w = padded(w) (true), w = w.x (false) and w.w^-1 = 1."""

    # Latency order: L50 < L150 < a100 < L450 < a250 < a300.  The two
    # a^250 ops of each cycle, whose cost hardly depends on the seed, hold
    # the 90th percentile.
    MIX = (("L50", 8), ("L150", 6), ("a100", 1), ("L450", 2), ("a250", 2), ("a300", 1))

    def __init__(self, seed: int) -> None:
        self.r = random.Random(f"words-{seed}")

    def make(self, size: str) -> Op:
        r = self.r
        if size.startswith("L"):
            w = gen.word(r, int(size[1:]))
        else:
            w = "a" * int(size[1:])
        return Op("word", size, op_word, (w, gen.padded(r, w), r.choice(gen.LETTERS)))

    def warmup_source(self) -> str:
        w = gen.word(self.r, 50)
        return (f"g = fstrands.from_word({w!r})\n"
                f"assert fstrands.from_word({gen.padded(self.r, w)!r}) == g\n")


# ---------------------------------------------------------------------------
# oracle: the PL oracle and upper bounds


def op_pl_hom(a: str, b: str, c: str, c_equal: bool) -> bool:
    A, B, C = thompson.from_word(a), thompson.from_word(b), thompson.from_word(c)
    pa = thompson.to_pl(A)
    composed = thompson.pl_compose(pa, thompson.to_pl(B))
    if not thompson.pl_eq(thompson.to_pl(A * B), composed):
        return False
    same = A == C
    if c_equal and not same:
        return False
    return same == thompson.pl_eq(pa, thompson.to_pl(C))


def op_ladder(k: int) -> bool:
    step = thompson.to_pl(thompson.from_word("ab"))
    expected = step
    for _ in range(k - 1):
        expected = thompson.pl_compose(expected, step)
    return thompson.pl_eq(thompson.to_pl(thompson.from_word("ab" * k)), expected)


def op_upper_bound(x_events, y_events) -> bool:
    x, y = _vertex(x_events), _vertex(y_events)
    ub = cubes.upper_bound(x, y)
    return cubes.leq(x, ub) and cubes.leq(y, ub)


class Oracle:
    """to_pl is a homomorphism and agrees with diagram equality; upper
    bounds lie above both vertices, including right combs."""

    MIX = (("vertex", 30), ("L8", 35), ("L16", 5), ("c200", 6), ("c400", 6), ("c600", 6),
           ("c800", 6), ("ab1", 1), ("ab2", 1), ("ab3", 1), ("ab4", 1), ("ab5", 1),
           ("ab6", 1))
    #: Comb sizes tried once per run outside the timed loop.  At the seed
    #: the larger ones raise RecursionError in the recursive tree helpers.
    PROBE = tuple(range(200, 1501, 100))
    #: Also run once outside the loop: to_pl((ab)^8) takes 17 splitting
    #: rounds, 131072 strands.  Of 20000 L16 draws, 7 took 16 rounds and one
    #: took 18, so about one run in ten draws a 16 and one in a hundred an 18.
    #: With (ab)^8 the run's peak RSS is set by the exponential refinement,
    #: not by which rare draw a seed makes.
    PEAK = Op("ladder", "ab8", op_ladder, (8,))

    def __init__(self, seed: int) -> None:
        self.r = random.Random(f"oracle-{seed}")

    def make(self, size: str) -> Op:
        r = self.r
        if size.startswith("L"):
            half = int(size[1:]) // 2
            a, b = gen.word(r, half), gen.word(r, half)
            c_equal = r.random() < 0.5
            c = gen.padded(r, a, pairs=1) if c_equal else gen.word(r, half)
            return Op("pl_hom", size, op_pl_hom, (a, b, c, c_equal))
        if size.startswith("ab"):
            return Op("ladder", size, op_ladder, (int(size[2:]),))
        y = gen.slice_events(r, 1, r.randint(0, 12))[0]
        if size == "vertex":
            x = gen.slice_events(r, 1, r.randint(0, 12))[0]
        else:
            x = gen.right_comb(int(size[1:]))
        return Op("upper_bound", size, op_upper_bound, (x, y))

    def probe(self) -> list[Op]:
        y = gen.slice_events(self.r, 1, 6)[0]
        return [Op("upper_bound", f"c{n}", op_upper_bound, (gen.right_comb(n), y))
                for n in self.PROBE]

    def warmup_source(self) -> str:
        a, b = gen.word(self.r, 4), gen.word(self.r, 4)
        return (f"A, B = fstrands.from_word({a!r}), fstrands.from_word({b!r})\n"
                "assert fstrands.pl_eq(fstrands.to_pl(A * B), "
                "fstrands.pl_compose(fstrands.to_pl(A), fstrands.to_pl(B)))\n")


# ---------------------------------------------------------------------------
# complex: cube complex, generalized diagrams, configurations


def op_cubes(events, by_dimension) -> bool:
    """At a tree vertex, distinct forests span distinct cubes, so the cubes
    of each dimension are exactly as many as the forests with that many
    carets, no cube comes twice, and the vertex is a corner of each."""
    v = _vertex(events)
    found = [0, 0, 0]
    keys = set()
    for cube in cubes.cubes_at(v, 2):
        found[cube.dimension] += 1
        keys.add((cube.top.label(), cube.splits.components))
        if not any(corner == v for _, corner in cube.corners()):
            return False
    return tuple(found) == by_dimension and len(keys) == sum(found)


def op_parameterize(events, kinds, coords, eps1, eps2) -> bool:
    v = _vertex(events)
    cube = cubes.cube_from_forest(v, ElementaryForest(kinds))
    p1 = cubes.parameterize(cube, cube.corner(eps1),
                            [1 - x if e else x for x, e in zip(coords, eps1)])
    p2 = cubes.parameterize(cube, cube.corner(eps2),
                            [1 - x if e else x for x, e in zip(coords, eps2)])
    return p1 == p2


def op_canonicalize(events, kinds, weights, move_seeds) -> bool:
    g = _generalized(events, kinds, weights)
    canon = forests.canonicalize_generalized(g)
    for s in move_seeds:
        g = forests.random_gmove(g, s)
    return forests.canonicalize_generalized(g) == canon


def op_orbit(events, kinds, weights, words) -> bool:
    p = forests.canonicalize_generalized(_generalized(events, kinds, weights))
    key = cubes.orbit_key(p)
    conf = configspace.canonicalize_cf(configspace.config_map(p))
    if conf != gen.canonical_cf(gen.config_map_oracle(kinds, weights)):
        return False
    for w in words:
        moved = forests.canonicalize_generalized(cubes.left_act(thompson.from_word(w), p))
        if cubes.orbit_key(moved) != key:
            return False
        if configspace.canonicalize_cf(configspace.config_map(moved)) != conf:
            return False
    return True


def op_section(t) -> bool:
    p = configspace.df_section(t)
    return configspace.is_in_df(t) and configspace.canonicalize_cf(configspace.config_map(p)) == t


def op_retract(t, times) -> bool:
    out = configspace.retract(t)
    if out != gen.retract_oracle(t) or not configspace.is_in_df(out):
        return False
    if configspace.retract_path(t, 0) != t or configspace.retract_path(t, 1) != out:
        return False
    for s in times:
        point = configspace.retract_path(t, s)
        if point != gen.retract_path_oracle(t, s) or not configspace.is_in_cf(point):
            return False
    return True


#: (vertices, edges) of the radius-5 ball around a (1,n) vertex, recorded at
#: the seed commit.  All (1,n) vertices with the same n form one orbit of
#: the left action, which preserves balls, so the shape depends on n only.
BALL_SHAPE = {1: (128, 184), 2: (486, 800)}


def op_ball(events, n: int) -> bool:
    v = _vertex(events)
    b = cubes.ball(v, 5)
    return (len(b.vertices), len(b.edges)) == BALL_SHAPE[n] and b.root == v.label()


class Complex:
    """Cubes at a vertex, parameterizations from two corners, canonical
    forms after random moves, orbit keys under the left action, the
    section round trip, retraction samples and balls of radius 5."""

    MIX = (("section", 14), ("canon", 13), ("param", 13), ("orbit", 12), ("retract", 13),
           ("n6", 10), ("n8", 20), ("ball.n1", 1), ("n10", 1), ("ball.n2", 1), ("n12", 1),
           ("n14", 1))

    def __init__(self, seed: int) -> None:
        self.r = random.Random(f"complex-{seed}")

    def _weighted(self, max_events: int):
        r = self.r
        events, n = gen.slice_events(r, 1, r.randint(0, max_events))
        kinds = gen.forest_kinds(r, n)
        return events, kinds, gen.weights_for(r, kinds)

    def make(self, size: str) -> Op:
        r = self.r
        if size.startswith("n"):
            n = int(size[1:])
            return Op("cubes_at", size, op_cubes,
                      (gen.random_tree(r, n), gen.forests_by_carets(n, 2)))
        if size.startswith("ball"):
            n = int(size[-1])
            return Op("ball", size, op_ball, (gen.events_to(r, n, r.randint(6, 14)), n))
        if size == "param":
            events, n = gen.slice_events(r, 1, r.randint(0, 6))
            while n < 2:
                events += (("S", r.randint(1, n)),)
                n += 1
            d = r.randint(1, min(4, n))
            kinds = gen.forest_kinds(r, n, carets=d)
            coords = tuple(gen.rational(r) for _ in range(d))
            eps1 = tuple(r.randint(0, 1) for _ in range(d))
            eps2 = eps1
            while eps2 == eps1:
                eps2 = tuple(r.randint(0, 1) for _ in range(d))
            return Op("parameterize", size, op_parameterize, (events, kinds, coords, eps1, eps2))
        if size == "canon":
            events, kinds, weights = self._weighted(10)
            seeds = tuple(r.randrange(1 << 30) for _ in range(r.randint(3, 8)))
            return Op("canonicalize", size, op_canonicalize, (events, kinds, weights, seeds))
        if size == "orbit":
            events, kinds, weights = self._weighted(6)
            words = tuple(gen.word(r, r.randint(1, 5)) for _ in range(4))
            return Op("orbit_key", size, op_orbit, (events, kinds, weights, words))
        if size == "section":
            return Op("df_section", size, op_section, (gen.df_point(r, r.randint(2, 10)),))
        t = gen.cf_tuple(r, r.randint(1, 20))
        times = tuple(Fraction(r.randint(1, 31), 32) for _ in range(6))
        return Op("retract", size, op_retract, (t, times))

    def warmup_source(self) -> str:
        return (f"v = fstrands.ComplexVertex(fstrands.from_slices("
                f"fstrands.SliceWord(1, {gen.random_tree(self.r, 8)!r})))\n"
                "assert list(fstrands.cubes_at(v, 2))\n")


# ---------------------------------------------------------------------------
# cli: many small in-process requests


def _diagram_equiv(out: str, m: int, events) -> bool:
    d = textio.parse_diagram(out)
    return (textio.emit_diagram(d) == out and diagrams.is_reduced(d)
            and diagrams.equivalent(d, diagrams.from_slices(SliceWord(m, events))))


def _check(code, out, err, check, expected) -> bool:
    if check == "error":
        return code == expected and out == "" and err != ""
    if code != 0:
        return False
    if check == "diagram":
        return _diagram_equiv(out, *expected)
    if check == "isotopic":
        d = textio.parse_diagram(out)
        return (textio.emit_diagram(d) == out
                and d == diagrams.from_slices(SliceWord(*expected)))
    if check == "word":
        d = textio.parse_diagram(out)
        return textio.emit_diagram(d) == out and d == thompson.from_word(expected).rep
    if check == "text":
        return out == expected
    if check == "point":
        return Fraction(out.strip()) == expected
    if check == "map":
        rows = [line.split() for line in out.splitlines()]
        pts = [(Fraction(x), Fraction(y)) for x, y in rows]
        return (pts[0] == (0, 0) and pts[-1] == (1, 1)
                and all(gen.word_eval(expected, x) == y for x, y in pts))
    if check == "config":
        t = textio.parse_config(out)
        return textio.emit_config(t) == out and t == expected
    if check == "section":
        g = textio.parse_generalized(out)
        return (textio.emit_generalized(g) == out
                and configspace.canonicalize_cf(configspace.config_map(g)) == expected)
    if check == "upper_bound":
        ub = cubes.ComplexVertex(textio.parse_diagram(out))
        return all(cubes.leq(_vertex(ev), ub) for ev in expected)
    if check == "forests":
        lines = out.splitlines()
        return len(lines) == expected == len(set(lines))
    raise ValueError(f"unknown check {check!r}")


def op_cli(argv, stdin, check, expected) -> bool:
    code, out, err = cli.run(list(argv), stdin)
    if check == "golden":
        return golden_ok("cli", expected, (tuple(argv), stdin), (code, out, err))
    return _check(code, out, err, check, expected)


class Cli:
    """Every verb, renderings included, with a tenth of the requests
    malformed or outside the verb's domain."""

    MIX = (("reduce", 2), ("eq", 2), ("mul", 2), ("inv", 2), ("word", 8),
           ("pl-eval", 4), ("pl-map", 1), ("cmap", 2), ("in-cf", 2), ("in-df", 2),
           ("canon-cf", 2), ("retract", 1), ("path-sample", 1), ("section", 2),
           ("upper-bound", 1), ("forests", 1), ("cubes", 1), ("ball", 1),
           ("holonomy", 1), ("render.diagram", 2), ("render.text", 1),
           ("render.generalized", 1), ("render.config", 1), ("render.ball", 2),
           ("error", 5))
    def __init__(self, seed: int) -> None:
        self.r = random.Random(f"cli-{seed}")
        self.pool = cli_pool()
        self.files = diagram_files()
        # The one word file that pl-eval queries at many points.  It is short
        # so that its cost, which to_pl makes vary widely between words, does
        # not make throughput depend on the seed.
        self.pl_word = gen.word(self.r, 4)

    def _pooled(self, label: str) -> Op:
        i = self.r.choice([k for k, p in enumerate(self.pool) if p[0] == label])
        _, argv, stdin = self.pool[i]
        return Op("cli", label, op_cli, (argv, stdin, "golden", i))

    def make(self, size: str) -> Op:
        r = self.r
        if size in ("cubes", "ball", "render.diagram", "render.generalized",
                    "render.config", "render.ball"):
            return self._pooled(size)

        def req(argv, stdin, check, expected):
            return Op("cli", size, op_cli, (tuple(argv), stdin, check, expected))

        if size in ("reduce", "inv"):
            m = r.randint(1, 3)
            ev, n = gen.slice_events(r, m, r.randint(1, 20))
            if size == "reduce":
                return req(("reduce", "-"), gen.diagram_text(m, ev), "diagram", (m, ev))
            return req(("inv", "-"), gen.diagram_text(m, ev), "diagram",
                       (n, gen.flip_events(ev)))
        if size == "render.text":
            m = r.randint(1, 3)
            ev, _ = gen.slice_events(r, m, r.randint(1, 12))
            text = gen.diagram_text(m, ev)
            return req(("render", "-", "--kind", "diagram", "--format", "text"), text,
                       "isotopic", (m, ev))
        if size == "eq":
            path, m, ev, n = r.choice(self.files)
            if r.random() < 0.5:
                # a split followed by the merge of its two legs cancels
                i = r.randint(1, n)
                other, expected = ev + (("S", i), ("M", i)), "true\n"
            else:
                other, expected = ev + (("S", r.randint(1, n)),), "false\n"
            return req(("eq", path, "-"), gen.diagram_text(m, other), "text", expected)
        if size == "mul":
            path, m, a, n = r.choice(self.files)
            b, _ = gen.slice_events(r, n, r.randint(1, 12))
            return req(("mul", path, "-"), gen.diagram_text(n, b), "diagram", (m, a + b))
        if size == "word":
            # Long enough that the word requests, the only ones of several
            # milliseconds, hold the 90th percentile: a scheduling stall of
            # a millisecond or two does not lift a light request past them.
            w = gen.word(r, r.randint(25, 35))
            return req(("word", "-"), " ".join(gen.padded(r, w, pairs=1)), "word", w)
        if size == "pl-eval":
            den = r.choice((2, 3, 4, 5, 8, 16, 32, 64))
            x = Fraction(r.randint(0, den), den)
            return req(("pl-eval", "-", str(x)), " ".join(self.pl_word) + "\n", "point",
                       gen.word_eval(self.pl_word, x))
        if size == "pl-map":
            w = gen.word(r, r.randint(1, 8))
            return req(("pl-eval", "-", "--map"), " ".join(w) + "\n", "map", w)
        if size == "cmap":
            ev, n = gen.slice_events(r, 1, r.randint(0, 8))
            kinds = gen.forest_kinds(r, n)
            weights = gen.weights_for(r, kinds)
            text = gen.diagram_text(1, ev) + gen.forest_text(kinds, weights)
            return req(("cmap", "-"), text, "config", gen.config_map_oracle(kinds, weights))
        if size in ("in-cf", "in-df"):
            if size == "in-cf":
                t = gen.cf_tuple(r, r.randint(1, 12))
                if r.random() < 0.5 and len(t) >= 2:
                    t = tuple(reversed(t)) if t[0] != t[-1] else t
                expected = all(a <= b for a, b in zip(t, t[1:]))
            elif r.random() < 0.5:
                t, expected = gen.df_point(r, r.randint(1, 8)), True
            else:
                t = gen.df_point(r, r.randint(1, 8))
                t, expected = tuple(x + 1 for x in t), False
            return req((size, "-"), gen.config_text(t), "text",
                       "true\n" if expected else "false\n")
        if size == "canon-cf":
            t = gen.df_point(r, r.randint(1, 8))
            return req(("canon-cf", "-"), gen.config_text(gen.with_duplicates(r, t)),
                       "config", t)
        if size in ("retract", "path-sample"):
            t = gen.cf_tuple(r, r.randint(1, 12))
            if size == "retract":
                return req(("retract", "-"), gen.config_text(t), "config", gen.retract_oracle(t))
            s = Fraction(r.randint(0, 32), 32)
            return req(("path-sample", "-", str(s)), gen.config_text(t), "config",
                       gen.retract_path_oracle(t, s))
        if size == "section":
            t = gen.df_point(r, r.randint(1, 8))
            return req(("section", "-"), gen.config_text(t), "section", t)
        if size == "upper-bound":
            path, _, x, _ = r.choice([f for f in self.files if f[1] == 1])
            y = gen.slice_events(r, 1, r.randint(0, 8))[0]
            return req(("upper-bound", path, "-"), gen.diagram_text(1, y),
                       "upper_bound", (x, y))
        if size == "forests":
            n = r.randint(1, 7)
            return req(("forests", str(n)), "", "forests", gen.forest_count(n))
        if size == "holonomy":
            # A loop that climbs by random forests and comes back down
            # along their reflections carries the identity.
            n, blocks = 1, []
            for _ in range(r.randint(1, 3)):
                kinds = gen.forest_kinds(r, n)
                blocks.append(kinds)
                n = sum(2 if k == "S" else 1 for k in kinds)
            text = "".join(gen.forest_text(k, (None,) * len(k)) for k in blocks)
            text += "".join("inv\n" + gen.forest_text(k, (None,) * len(k))
                            for k in reversed(blocks))
            return req(("holonomy", "-"), text, "text", "diagram 1\n")
        return self._malformed()

    def _malformed(self) -> Op:
        r = self.r
        w = gen.word(r, r.randint(1, 6))
        t = gen.cf_tuple(r, r.randint(2, 6))
        cases = (
            (("word", "-"), " ".join(w) + " c\n", 2),
            (("frobnicate", "-"), "", 2),
            (("in-df", "-"), gen.config_text(tuple(reversed(t)) if t[0] != t[-1]
                                              else (t[0] + 1, t[0])), 1),
            (("path-sample", "-", "3/2"), gen.config_text(t), 1),
            (("forests", "0"), "", 1),
            (("reduce", "-"), "diagrom 1\n", 2),
            (("retract", "-"), "1 x\n", 2),
            (("cubes", "-", "--max-dim", "-1"), "diagram 1\n", 1),
            (("pl-eval", "-"), " ".join(w) + "\n", 2),
            (("ball", "-", "-1"), "diagram 1\n", 1),
            (("section", "-"), "2 3\n", 1),
            (("render", "-", "--kind", "config", "--format", "dot"), "1 2\n", 2),
        )
        argv, stdin, code = r.choice(cases)
        return Op("cli", "error", op_cli, (argv, stdin, "error", code))

    def warmup_source(self) -> str:
        w = gen.word(self.r, 6)
        return ("from fstrands import cli\n"
                f"assert cli.run(['word', '-'], {' '.join(w)!r})[0] == 0\n")


WORKLOADS = {"words": Words, "oracle": Oracle, "complex": Complex, "cli": Cli}


def cycle(workload) -> list[Op]:
    """One cycle of the workload's size mix, in seeded random order."""
    ops = [workload.make(size) for size, k in workload.MIX for _ in range(k)]
    workload.r.shuffle(ops)
    return ops
