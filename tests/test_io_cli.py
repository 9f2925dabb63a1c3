"""Text formats, renderers, and the command-line front end."""

import hashlib
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from fstrands import cubes, textio
from fstrands.cli import run
from fstrands.cubes import CAP, ball, trivial_vertex
from fstrands.diagrams import M, S, SliceWord, from_slices, identity
from fstrands.errors import FormatError, InvariantViolation
from fstrands.forests import GeneralizedStrandDiagram
from fstrands.render import (
    RenderSpec,
    ball_dot,
    ball_edge_text,
    render_config_svg,
    render_diagram_svg,
    render_generalized_svg,
)

from helpers import random_diagram, random_generalized, rng
from helpers import weighted_forest as wf

F = Fraction


class TestTextFormats:
    def test_rational_parsing_is_exact(self):
        assert textio.parse_rational("3/4") == F(3, 4)
        assert textio.parse_rational("0.25") == F(1, 4)
        assert textio.parse_rational("2") == F(2)
        with pytest.raises(FormatError):
            textio.parse_rational("x")

    def test_diagram_round_trip(self):
        r = rng(2)
        for _ in range(40):
            d = random_diagram(r, max_events=15)
            assert textio.parse_diagram(textio.emit_diagram(d)) == d

    def test_diagram_comments_and_blanks(self):
        text = "# header\ndiagram 1\n\nS 1  # split\nM 1\n"
        assert textio.parse_diagram(text) == from_slices(SliceWord(1, (S(1), M(1))))

    def test_diagram_bad_header(self):
        with pytest.raises(FormatError, match="line 1"):
            textio.parse_diagram("diag 1\n")

    def test_diagram_bad_event_index(self):
        for text, event in (("diagram 1\nM 1\n", "event 1: merge index 1"),
                            ("diagram 2\nS 1\nS 4\n", "event 2: split index 4")):
            with pytest.raises(FormatError, match=event):
                textio.parse_diagram(text)
            code, out, err = run(["reduce", "-"], text)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {event}") and err.count("\n") == 1

    def test_diagram_source_count_is_bounded(self):
        # one stub per source: a 19-byte header must not ask for 150 GB
        start = time.perf_counter()
        code, out, err = run(["reduce", "-"], "diagram 1000000000\n")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "exceeds" in err
        with pytest.raises(FormatError, match="line 2: source count"):
            textio.parse_diagram(f"# big\ndiagram {CAP + 1}\n")
        d = textio.parse_diagram(f"diagram {CAP}\nS {CAP}\n")
        assert (d.m, d.n) == (CAP, CAP + 1)

    def test_forest_round_trip(self):
        r = rng(3)
        for _ in range(40):
            g = random_generalized(r)
            assert textio.parse_forest(textio.emit_forest(g.forest)) == g.forest

    def test_forest_weight_defaults_to_one(self):
        f = textio.parse_forest("forest 2\nS\nE\n")
        assert f == wf(("S", 1), "E")

    def test_forest_count_mismatch(self):
        with pytest.raises(FormatError, match="announces 2"):
            textio.parse_forest("forest 2\nE\n")

    def test_generalized_round_trip(self):
        r = rng(4)
        for _ in range(40):
            g = random_generalized(r)
            assert textio.parse_generalized(textio.emit_generalized(g)) == g

    def test_bare_diagram_reads_as_vertex(self):
        g = textio.parse_generalized("diagram 1\nS 1\n")
        assert g == GeneralizedStrandDiagram.vertex(from_slices(SliceWord(1, (S(1),))))

    def test_config_round_trip(self):
        t = (F(1), F(3, 2), F(5, 2))
        assert textio.parse_config(textio.emit_config(t)) == t
        assert textio.parse_config("1 1.5 5/2\n") == t

    def test_moves_with_inverse_marker(self):
        moves = textio.parse_moves("forest 1\nS\ninv\nforest 1\nS\n")
        assert [s for s, _ in moves] == [1, -1]
        assert moves[0][1].components == ("S",)


class TestRender:
    def test_svg_outputs_are_wellformed_xml(self):
        spec = RenderSpec()
        r = rng(6)
        docs = [
            render_diagram_svg(random_diagram(r, max_events=8), spec),
            render_diagram_svg(identity(1), spec),
            render_generalized_svg(random_generalized(r), spec),
            render_config_svg((F(1), F(3, 2), F(5, 2)), spec),
        ]
        for doc in docs:
            ET.fromstring(doc)

    def test_rendering_is_deterministic(self):
        r1, r2 = rng(9), rng(9)
        spec = RenderSpec(scale=30.0, labels=False)
        a = render_generalized_svg(random_generalized(r1), spec)
        b = render_generalized_svg(random_generalized(r2), spec)
        assert a == b

    def test_trivial_diagram_has_one_strand_path(self):
        doc = render_diagram_svg(identity(1), RenderSpec(labels=False))
        assert doc.count("<line") == 1

    def test_config_marks_three_points(self):
        doc = render_config_svg((F(1), F(3, 2), F(5, 2)), RenderSpec(labels=False))
        root = ET.fromstring(doc)
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 3

    def test_ball_formats(self):
        g = ball(trivial_vertex(), 1)
        text = ball_edge_text(g)
        assert " -- " in text
        dot = ball_dot(g)
        assert dot.startswith("digraph ball {") and "->" in dot


DIAGRAM_SM = "diagram 1\nS 1\nM 1\n"
VERBS = ["reduce", "eq", "mul", "inv", "word", "pl-eval", "cmap", "in-cf", "in-df", "canon-cf",
         "retract", "path-sample", "section", "upper-bound", "forests", "cubes", "ball",
         "holonomy", "render"]


class TestMain:
    """The console-script entry point, run in a fresh interpreter on a real
    stdin stream, with its exit code raised through ``SystemExit``."""

    @staticmethod
    def main(argv, stdin):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-c", "from fstrands.cli import main; main()", *argv],
            input=stdin, capture_output=True, text=True, env=env, timeout=60)

    def test_reduces_stdin(self):
        proc = self.main(["reduce", "-"], "diagram 1\nS 1\nM 1\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "diagram 1\n", "")

    def test_malformed_file_exits_two(self):
        proc = self.main(["reduce", "-"], "diagram x\n")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.count("\n") == 1

    def test_negative_radius_exits_one(self):
        proc = self.main(["ball", "-", "-1"], "diagram 1\n")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("rejected:")


class TestCli:
    def test_in_cf_true(self):
        code, out, _ = run(["in-cf", "-"], "1 1 2\n")
        assert (code, out) == (0, "true\n")

    def test_in_cf_false_still_succeeds(self):
        code, out, _ = run(["in-cf", "-"], "1 1 1.5\n")
        assert (code, out) == (0, "false\n")

    def test_reduce_collapses(self):
        code, out, _ = run(["reduce", "-"], DIAGRAM_SM)
        assert code == 0
        assert out == "diagram 1\n"

    def test_retract_example(self):
        code, out, _ = run(["retract", "-"], "3 7\n")
        assert (code, out) == (0, "1 2\n")

    def test_word_relator_is_identity(self):
        code, out, _ = run(["word", "-"], "a B A b a b A A B a\n")
        assert code == 0
        assert out == "diagram 1\n"

    def test_pl_eval(self):
        code, out, _ = run(["pl-eval", "-", "1/4"], "a\n")
        assert (code, out) == (0, "1/2\n")

    def test_pl_map_lines(self):
        code, out, _ = run(["pl-eval", "-", "--map"], "a\n")
        assert code == 0
        assert out.splitlines()[0] == "0 0"
        assert all(len(line.split()) == 2 for line in out.splitlines())

    def test_eq_verb(self):
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            p1 = os.path.join(tmp, "a")
            p2 = os.path.join(tmp, "b")
            with open(p1, "w") as fh:
                fh.write(DIAGRAM_SM)
            with open(p2, "w") as fh:
                fh.write("diagram 1\n")
            code, out, _ = run(["eq", p1, p2])
            assert (code, out) == (0, "true\n")

    def test_mul_arity_mismatch_is_domain_error(self):
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            p1 = os.path.join(tmp, "a")
            with open(p1, "w") as fh:
                fh.write("diagram 2\n")
            code, _, err = run(["mul", p1, "-"], "diagram 3\n")
            assert code == 1
            assert "rejected" in err

    def test_malformed_file_exits_two(self):
        code, _, err = run(["reduce", "-"], "diagram x\n")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("token", ["1e-10000000", "1e4301", "1E+" + "9" * 5000],
                             ids=["1e-10000000", "1e4301", "5000-digit-exponent"])
    def test_huge_decimal_exponent_exits_two(self, token, monkeypatch):
        # rejected before Fraction could build a power of ten that large
        def no_fraction(*args):
            raise AssertionError("Fraction reached")

        monkeypatch.setattr(textio, "Fraction", no_fraction)
        code, out, err = run(["in-cf", "-"], token + "\n")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "exponent" in err

    def test_exponent_at_the_limit_is_exact(self):
        assert textio.parse_rational("1e-4300") == F(1, 10 ** 4300)
        assert textio.parse_rational("25E-2") == F(1, 4)

    def test_invariant_violation_exits_three(self, monkeypatch):
        def broken(*args):
            raise InvariantViolation("planted")

        monkeypatch.setattr("fstrands.cli.reduce", broken)
        code, out, err = run(["reduce", "-"], DIAGRAM_SM)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("internal error: planted")
        assert "reduce -" in err

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_resource_exhaustion_exits_three(self, error, monkeypatch):
        def broken(*args):
            raise error()

        monkeypatch.setattr("fstrands.cli._dispatch", broken)
        code, out, err = run(["reduce", "-"], DIAGRAM_SM)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err == f"internal error: {error.__name__} (argv: reduce -)\n"

    def test_unknown_verb_exits_two(self):
        code, _, _ = run(["frobnicate"])
        assert code == 2

    @pytest.mark.parametrize("argv", [[], ["reduce"], ["frobnicate"], ["ball", "-", "x"],
                                      ["render", "-", "--kind", "tree"], ["reduce", "-", "a\nb"]])
    def test_bad_invocation_is_one_line(self, argv):
        # argparse would print its usage block above the error
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_message_quoting_a_newline_is_one_line(self):
        code, out, err = run(["reduce", "no/such\nfile"])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read no/such file") and len(err.splitlines()) == 1

    def test_help_goes_to_the_returned_stdout(self, capsys):
        code, out, err = run(["--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: fstrands")
        assert capsys.readouterr() == ("", "")

    def test_help_lists_every_verb_in_order(self):
        out = run(["--help"])[1]
        assert out.split("\n  {", 1)[1].split("}", 1)[0].split(",") == VERBS
        # one line per verb, indented four spaces, each followed by its help
        assert [line.split()[0] for line in out.splitlines()
                if line.startswith("    ") and line[4] != " "] == VERBS

    @pytest.mark.parametrize("verb", VERBS)
    def test_verb_help(self, verb):
        code, out, err = run([verb, "--help"])
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: fstrands {verb}")

    def test_missing_file_exits_two(self):
        code, _, _ = run(["reduce", "/nonexistent/path"])
        assert code == 2

    def test_retract_requires_configuration(self):
        code, _, err = run(["retract", "-"], "2 1\n")
        assert code == 1
        assert "rejected" in err

    @pytest.mark.parametrize("verb, config, message", [
        ("retract", "1 1 1\n", "rejected: 1 1 1 is not a configuration\n"),
        ("section", "1 5\n", "rejected: 1 5 is not in the image of the complex\n"),
    ])
    def test_configuration_rejection_quotes_the_entries(self, verb, config, message):
        # the entries as emit_config writes them
        assert run([verb, "-"], config) == (1, "", message)

    def test_cmap_of_section_round_trips(self):
        code, section_out, _ = run(["section", "-"], "1 3/2 5/2\n")
        assert code == 0
        code, cmap_out, _ = run(["cmap", "-"], section_out)
        assert code == 0
        code, canon_out, _ = run(["canon-cf", "-"], cmap_out)
        assert (code, canon_out) == (0, "1 3/2 5/2\n")

    def test_in_df(self):
        assert run(["in-df", "-"], "1 3/2 5/2\n")[:2] == (0, "true\n")
        assert run(["in-df", "-"], "1 3/2 2\n")[:2] == (0, "false\n")
        assert run(["in-df", "-"], "2 1\n")[0] == 1

    def test_path_sample_endpoints(self):
        assert run(["path-sample", "-", "0"], "3 7\n")[:2] == (0, "3 7\n")
        assert run(["path-sample", "-", "1"], "3 7\n")[:2] == (0, "1 2\n")

    def test_forests_count(self):
        code, out, _ = run(["forests", "3"])
        assert code == 0
        assert len(out.splitlines()) == 12

    def test_forests_up_to_the_cap(self):
        code, out, _ = run(["forests", "13"])
        assert code == 0
        assert len(out.splitlines()) == 80782

    @pytest.mark.parametrize("n", ["14", "5000", "10000000"])
    def test_forests_past_the_cap_rejected(self, n):
        t0 = time.perf_counter()
        code, out, err = run(["forests", n])
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("rejected:") and err.count("\n") == 1

    def test_forests_zero_rejected(self):
        for n in ("0", "-3"):
            code, out, err = run(["forests", n])
            assert (code, out) == (1, "")
            assert err.startswith("rejected:") and err.count("\n") == 1

    def test_cubes_listing(self):
        code, out, _ = run(["cubes", "-", "--max-dim", "1"], "diagram 1\n")
        assert code == 0
        lines = sorted(out.splitlines())
        assert lines == ["dim=0 top=1: splits=E", "dim=1 top=1: splits=S"]

    @pytest.mark.parametrize("max_dim", ["4", "40"])
    def test_cubes_past_the_cap_rejected(self, max_dim):
        comb = "diagram 1\n" + "".join(f"S {i}\n" for i in range(1, 40))  # 40 leaves
        t0 = time.perf_counter()
        code, out, err = run(["cubes", "-", "--max-dim", max_dim], comb)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("rejected:") and err.count("\n") == 1

    def test_cubes_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(cubes, "CAP", 12)  # the 12 forests on 3 strands
        code, out, _ = run(["cubes", "-", "--max-dim", "3"], "diagram 1\nS 1\nS 1\n")
        assert code == 0 and len(out.splitlines()) == 12
        code, out, _ = run(["cubes", "-", "--max-dim", "1"], "diagram 1\nS 1\nS 1\nS 1\n")
        assert code == 0 and len(out.splitlines()) == 8
        assert run(["cubes", "-", "--max-dim", "2"], "diagram 1\nS 1\nS 1\nS 1\n")[:2] == (1, "")

    def test_ball_quotient_edge_list(self):
        code, out, _ = run(["ball", "-", "1", "--quotient"], "diagram 1\n")
        assert code == 0
        assert out == "1|E -- 2|E.E\n"

    def test_quotient_ball_at_radius_440(self):
        # labels of 1 + ... + 441 = 97461 strands, within CAP
        t0 = time.perf_counter()
        code, out, err = run(["ball", "-", "440", "--quotient"], "diagram 1\n")
        assert time.perf_counter() - t0 < 1.0
        assert (code, err, len(out.splitlines())) == (0, "", 440)

    def test_quotient_ball_past_the_strand_bound_is_refused(self):
        # labels of 1 + ... + 447 = 100128 strands, above CAP
        t0 = time.perf_counter()
        code, out, err = run(["ball", "-", "446", "--quotient"], "diagram 1\n")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("rejected:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["upper-bound", "-", "RIGHT"], ["cubes", "-"],
                                      ["ball", "-", "1"]])
    def test_vertex_verbs_reject_two_sources(self, argv, tmp_path):
        right = tmp_path / "right"
        right.write_text("diagram 1\n")
        argv = [str(right) if a == "RIGHT" else a for a in argv]
        code, out, err = run(argv, "diagram 2\nS 1\n")
        assert (code, out) == (1, "")
        assert err.startswith("rejected:") and err.count("\n") == 1

    def test_ball_cap_exceeded(self):
        code, _, err = run(["ball", "-", "4", "--cap", "5"], "diagram 1\n")
        assert code == 1
        assert "cap" in err

    def test_upper_bound_verb(self):
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            p1 = os.path.join(tmp, "left")
            p2 = os.path.join(tmp, "right")
            with open(p1, "w") as fh:
                fh.write("diagram 1\nS 1\nS 1\n")
            with open(p2, "w") as fh:
                fh.write("diagram 1\nS 1\nS 2\n")
            code, out, _ = run(["upper-bound", p1, p2])
            assert code == 0
            assert out == "diagram 1\nS 1\nS 1\nS 3\n"

    def test_upper_bound_of_deep_comb(self, tmp_path):
        comb = tmp_path / "comb"
        comb.write_text("diagram 1\n" + "".join(f"S {i}\n" for i in range(1, 1500)))
        code, out, err = run(["upper-bound", str(comb), "-"], "diagram 1\nS 1\n")
        assert (code, err) == (0, "")
        assert textio.parse_diagram(out).n == 1500

    @pytest.mark.parametrize("verb", ["eq", "mul", "upper-bound"])
    def test_stdin_feeds_one_operand_only(self, verb):
        code, out, err = run([verb, "-", "-"], "diagram 1\n")
        assert (code, out) == (2, "")
        assert "only one operand" in err
        assert len(err.splitlines()) == 1

    def test_holonomy_identity_loop(self):
        moves = "forest 1\nS\nforest 1\nM\n"
        code, out, _ = run(["holonomy", "-"], moves)
        assert (code, out) == (0, "diagram 1\n")

    def test_holonomy_arity_break(self):
        moves = "forest 1\nS\nforest 3\nS\nE\nE\n"
        code, _, err = run(["holonomy", "-"], moves)
        assert code == 1

    def test_render_diagram_svg(self):
        code, out, _ = run(["render", "-", "--kind", "diagram"], DIAGRAM_SM)
        assert code == 0
        ET.fromstring(out)

    def test_render_config_svg(self):
        code, out, _ = run(["render", "-", "--kind", "config"], "1 3/2 5/2\n")
        assert code == 0
        ET.fromstring(out)

    @pytest.mark.parametrize("config", ["0 100000\n", f"-{CAP} {CAP}\n"])
    def test_render_config_size_is_bounded_at_cap(self, config):
        # one tick per unit wrote 9.65 MB for "0 100000"
        code, out, _ = run(["render", "-", "--kind", "config"], config)
        assert code == 0
        assert len(out.encode()) < 100_000
        ET.fromstring(out)

    @pytest.mark.parametrize("argv, text, digest", [
        pytest.param(["--kind", "config"], "-50 50\n",
                     "ad296157ea6bf06c6260bb4490d197aa2a3688b1a74d6bb99dc89608b6fcbb56",
                     id="config -50 50"),
        pytest.param(["--kind", "config"], "-3/2 98\n",
                     "4e430c1261c0a183ecd307e463915f5603a54b2a315669c4959fd365b0ffdaa1",
                     id="config -3/2 98"),
        pytest.param(["--kind", "diagram"], "diagram 3\n",
                     "c54fabeca73b365dc169d11c5893d0fdf8ff4a657d877d00895df7a92919d960",
                     id="diagram without events"),
        pytest.param(["--kind", "diagram"], "diagram 2\nS 1\nS 3\nM 2\nM 1\n",
                     "32279fe5b14e7ccff83228d0aa6396d9c5f3dc97e75ca5f974ec70691e24a8de",
                     id="diagram"),
        pytest.param(["--kind", "diagram", "--no-labels"], "diagram 2\nS 1\nS 3\nM 2\nM 1\n",
                     "1eb018af9f3dc23ccbe3913ea2823fd05fbf44cfb4b9242709f6b550415a36df",
                     id="diagram --no-labels"),
        pytest.param(["--kind", "generalized"], "diagram 1\nS 1\nS 2\nforest 2\nS 0\nM 1/2\n",
                     "d7fe5a18526dbfa05213dc5db4821443ff8fe2a0bd1ff53e38931defef683e24",
                     id="generalized"),
        pytest.param(["--kind", "generalized"], "diagram 1\nforest 1\nS 1/3\n",
                     "bb47825af3ae15fe7ff33ee1b35275cd3e7f3d6e4cac8ddd55f193e6e7f16edb",
                     id="generalized on a bare vertex"),
    ])
    def test_render_bytes_are_pinned(self, argv, text, digest):
        # the SVG bytes; config spans up to 100 units keep one tick per unit
        code, out, _ = run(["render", "-", *argv], text)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("config", ["1e400\n", "0 1000000\n", f"-{CAP + 1} 0\n"])
    def test_render_config_far_from_zero_rejected(self, config):
        t0 = time.perf_counter()
        code, out, err = run(["render", "-", "--kind", "config"], config)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("rejected:") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["diagram", "generalized"])
    def test_render_diagram_size_is_bounded(self, kind):
        # one segment per strand per band: this 19 kB comb asks for 4,504,500
        comb = "diagram 1\n" + "".join(f"S {i}\n" for i in range(1, 3001))
        t0 = time.perf_counter()
        code, out, err = run(["render", "-", "--kind", kind], comb)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("rejected:") and err.count("\n") == 1

    def test_render_diagram_at_the_bound(self):
        # a split band on n strands draws n + 1 segments and a merge band n
        n = (CAP - 2) // 2
        code, out, _ = run(["render", "-", "--kind", "diagram", "--no-labels"],
                           f"diagram {n}\nS 1\nM 1\n")
        assert code == 0
        assert out.count("<line") == 2 * n + 2 == CAP
        code, out, err = run(["render", "-", "--kind", "diagram"],
                             f"diagram {n + 1}\nS 1\nM 1\n")
        assert (code, out) == (1, "")
        assert f"{CAP + 2} strand segments" in err

    @pytest.mark.parametrize("scale", ["0", "nan", "inf"])
    def test_render_rejects_bad_scale(self, scale):
        code, out, err = run(["render", "-", "--kind", "diagram", "--scale", scale],
                             DIAGRAM_SM)
        assert (code, out) == (1, "")
        assert "scale" in err

    def test_render_determinism(self):
        a = run(["render", "-", "--kind", "generalized"],
                "diagram 1\nS 1\nforest 2\nS 1/2\nE\n")
        b = run(["render", "-", "--kind", "generalized"],
                "diagram 1\nS 1\nforest 2\nS 1/2\nE\n")
        assert a == b

    def test_parse_ball_reads_edge_text(self):
        g = ball(trivial_vertex(), 2)
        back = textio.parse_ball(ball_edge_text(g))
        assert (back.root, back.edges) == (g.root, g.edges)
        assert set(back.vertices) == set(g.vertices)
        assert textio.parse_ball("# nothing\n\n").root == ""

    @pytest.mark.parametrize("text", ["a b\n", "a -- b -- c\n", "a--b\n", "a -- \n"])
    def test_render_ball_rejects_bad_edge_lines(self, text):
        code, out, err = run(["render", "-", "--kind", "ball"], "x -- y\n" + text)
        assert (code, out, err) == (2, "", "error: line 2: expected 'a -- b'\n")

    def test_render_ball_dot_from_edge_list(self):
        code, edges, _ = run(["ball", "-", "1"], "diagram 1\n")
        assert code == 0
        code, dot, _ = run(["render", "-", "--kind", "ball", "--format", "dot"], edges)
        assert code == 0
        assert dot.startswith("digraph ball {")

    def test_emitted_diagrams_reparse_to_same_object(self):
        r = rng(14)
        for _ in range(20):
            d = random_diagram(r, max_events=10)
            code, out, _ = run(["reduce", "-"], textio.emit_diagram(d))
            assert code == 0
            code2, out2, _ = run(["reduce", "-"], out)
            assert code2 == 0
            assert out2 == out
