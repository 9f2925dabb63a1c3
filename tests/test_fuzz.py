"""Hypothesis fuzzing of the text parsers and the command line.

Inputs are built from the tokens the formats use plus short noise, with
every number small, so that no example asks for a large diagram, ball or
forest listing.  Examples are bounded and untimed to keep the suite fast.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fstrands import textio
from fstrands.cli import run
from fstrands.diagrams import M, S, SliceWord, from_slices
from fstrands.errors import FormatError
from fstrands.forests import EDGE, GeneralizedStrandDiagram, WeightedElementaryForest

FUZZ = settings(max_examples=80, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

TOKENS = ("diagram", "forest", "inv", "S", "M", "E", "a", "A", "b", "B", "--",
          "#", "0", "1", "2", "3", "-1", "1/2", "3/4", "0.5", "2/3", "1e3",
          "1e99999", "1/0", "nan", "x", "v1", "v2", "\t", "\r")
token = st.sampled_from(TOKENS) | st.text(max_size=3)
line = st.lists(token, max_size=4).map(" ".join)
texts = st.lists(line, max_size=8).map("\n".join) | st.text(max_size=40)

PARSERS = (textio.parse_diagram, textio.parse_forest, textio.parse_generalized,
           textio.parse_word, textio.parse_config, textio.parse_moves,
           textio.parse_ball, textio.parse_rational)


@st.composite
def slice_words(draw, m_max=3, max_events=14):
    m = draw(st.integers(1, m_max))
    count, events = m, []
    for _ in range(draw(st.integers(0, max_events))):
        if count == 1 or draw(st.booleans()):
            events.append(S(draw(st.integers(1, count))))
            count += 1
        else:
            events.append(M(draw(st.integers(1, count - 1))))
            count -= 1
    return SliceWord(m, tuple(events))


weights = st.fractions(min_value=0, max_value=1, max_denominator=64)


@st.composite
def forests_on(draw, n):
    """A weighted forest whose components cover exactly n source strands."""
    kinds, ws, left = [], [], n
    while left:
        k = draw(st.sampled_from((EDGE, "S", "M") if left >= 2 else (EDGE, "S")))
        kinds.append(k)
        ws.append(None if k == EDGE else draw(weights))
        left -= 2 if k == "M" else 1
    return WeightedElementaryForest(tuple(kinds), tuple(ws))


@st.composite
def generalized(draw):
    base = from_slices(draw(slice_words(m_max=1)))
    return GeneralizedStrandDiagram(base, draw(forests_on(base.n)))


class TestParsers:
    @given(st.sampled_from(PARSERS), texts)
    @FUZZ
    def test_parsers_raise_only_format_errors(self, parse, text):
        try:
            parse(text)
        except FormatError:
            pass

    @given(slice_words())
    @FUZZ
    def test_diagram_round_trip(self, w):
        d = from_slices(w)
        text = textio.emit_diagram(d)
        back = textio.parse_diagram(text)
        assert back == d
        assert textio.emit_diagram(back) == text

    @given(st.integers(1, 6).flatmap(forests_on))
    @FUZZ
    def test_forest_round_trip(self, f):
        text = textio.emit_forest(f)
        assert textio.parse_forest(text) == f
        assert textio.emit_forest(textio.parse_forest(text)) == text

    @given(generalized())
    @FUZZ
    def test_generalized_round_trip(self, g):
        text = textio.emit_generalized(g)
        back = textio.parse_generalized(text)
        assert back.base == g.base and back.forest == g.forest
        assert textio.emit_generalized(back) == text

    @given(st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=12).map(tuple))
    @FUZZ
    def test_config_round_trip(self, t):
        text = textio.emit_config(t)
        assert textio.parse_config(text) == t
        assert textio.emit_config(textio.parse_config(text)) == text

    @given(st.lists(st.tuples(st.sampled_from(("v1", "v2", "1:S1", "2|E.E")),
                              st.sampled_from(("v1", "v3", "1:", "1|E"))), max_size=6))
    @FUZZ
    def test_ball_round_trip(self, edges):
        from fstrands.render import ball_edge_text

        text = "".join(f"{a} -- {b}\n" for a, b in edges)
        g = textio.parse_ball(text)
        assert g.edges == tuple(edges)
        assert ball_edge_text(g) == text
        assert g.root == (edges[0][0] if edges else "")


VERBS = ("reduce", "eq", "mul", "inv", "word", "pl-eval", "cmap", "in-cf", "in-df",
         "canon-cf", "retract", "path-sample", "section", "upper-bound", "forests",
         "cubes", "ball", "holonomy", "render", "frobnicate", "", "--help")
ARGS = ("-", "-", "-", "no/such/file", "0", "1", "2", "-1", "x", "1/2", "3/2",
        "--map", "--quotient", "--dot", "--max-dim", "--cap", "--kind", "--format",
        "--scale", "--no-labels", "diagram", "generalized", "config", "ball", "svg",
        "dot", "text", "nan", "1e308", "\n", "a\nb")
argvs = st.tuples(st.sampled_from(VERBS), st.lists(st.sampled_from(ARGS), max_size=5)).map(
    lambda p: [p[0], *p[1]])


class TestCli:
    @given(argvs, texts)
    @FUZZ
    def test_exit_code_and_one_line_message(self, argv, stdin):
        code, out, err = run(argv, stdin)
        assert code in (0, 1, 2), (argv, stdin, err)
        if code:
            assert err.endswith("\n") and len(err.splitlines()) == 1, (argv, err)
            assert out == ""
