"""Command-line front end.

Every verb reads files (or "-" for standard input), writes its result to
standard output, and reports problems on standard error.  Exit codes:
0 on success, 1 when a well-formed input violates a verb's domain
(not a configuration, arity mismatch, and so on), 2 on parse errors or
bad invocations, 3 when an internal invariant fails or the recursion
limit or memory runs out (a bug; the message names the arguments).
Invocations are controlled entirely by flags; there are no environment
variables or config files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

from . import configspace, cubes, render, textio
from .diagrams import equivalent, invert, multiply, reduce
from .errors import DomainError, FormatError, InvariantViolation
from .thompson import from_word, pl_eval, to_pl


class _Parser(argparse.ArgumentParser):
    """Reports a bad invocation in one line, without the usage block."""

    def error(self, message: str):
        self.exit(2, _line("error", message))


def _line(prefix: str, message: str) -> str:
    """One stderr line, even when the message quotes a newline from the input."""
    return f"{prefix}: {' '.join(message.splitlines())}\n"


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="fstrands",
        description="Strand diagram calculus, cube complex and configuration tools",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def add(verb, help_, *args):
        p = sub.add_parser(verb, help=help_)
        for flags, kw in args:
            p.add_argument(*flags, **kw)
        return p

    add("reduce", "reduce a diagram file", (("file",), {}))
    add("eq", "compare two diagram files up to reduction",
        (("left",), {}), (("right",), {}))
    add("mul", "stack two diagram files", (("left",), {}), (("right",), {}))
    add("inv", "reflect a diagram file", (("file",), {}))
    add("word", "canonical diagram of a generator word (letters a A b B)",
        (("file",), {}))
    p = add("pl-eval", "evaluate the PL map of a generator word", (("file",), {}),
            (("at",), {"nargs": "?", "default": None}))
    p.add_argument("--map", action="store_true", dest="show_map",
                   help="print breakpoints instead of a value")
    add("cmap", "configuration of a generalized diagram file", (("file",), {}))
    add("in-cf", "configuration membership", (("file",), {}))
    add("in-df", "image membership of a configuration", (("file",), {}))
    add("canon-cf", "canonical duplicate-free representative", (("file",), {}))
    add("retract", "retract a configuration onto the image", (("file",), {}))
    add("path-sample", "sample the retraction path at a time in [0,1]",
        (("file",), {}), (("time",), {}))
    add("section", "generalized diagram over an image configuration",
        (("file",), {}))
    add("upper-bound", "common splitting refinement of two (1,n) diagrams",
        (("left",), {}), (("right",), {}))
    add("forests", "list elementary forests on n strands", (("n",), {"type": int}))
    p = add("cubes", "cubes at a vertex diagram", (("file",), {}))
    p.add_argument("--max-dim", type=int, default=2)
    p = add("ball", "1-skeleton ball around a vertex diagram",
            (("file",), {}), (("radius",), {"type": int}))
    p.add_argument("--quotient", action="store_true")
    p.add_argument("--cap", type=int, default=cubes.CAP)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of an edge list")
    add("holonomy", "element carried by a move file", (("file",), {}))
    p = add("render", "render an object to SVG or DOT", (("file",), {}))
    p.add_argument("--kind", required=True,
                   choices=("diagram", "generalized", "config", "ball"))
    p.add_argument("--format", dest="fmt", default=None,
                   choices=("svg", "dot", "text"))
    p.add_argument("--scale", type=float, default=40.0)
    p.add_argument("--no-labels", action="store_true")
    return top


def _read(path: str, stdin: io.TextIOBase) -> str:
    if path == "-":
        return stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _read_operands(ns: argparse.Namespace, stdin: io.TextIOBase) -> tuple[str, str]:
    if ns.left == ns.right == "-":
        raise FormatError("standard input can feed only one operand; give a file for the other")
    return _read(ns.left, stdin), _read(ns.right, stdin)


def _bool_line(flag: bool) -> str:
    return "true\n" if flag else "false\n"


def _vertex(text: str) -> cubes.ComplexVertex:
    return cubes.ComplexVertex(textio.parse_diagram(text))


def _dispatch(ns: argparse.Namespace, stdin: io.TextIOBase, out: io.TextIOBase) -> None:
    verb = ns.verb
    if verb == "reduce":
        d = textio.parse_diagram(_read(ns.file, stdin))
        out.write(textio.emit_diagram(reduce(d)))
    elif verb == "eq":
        a, b = map(textio.parse_diagram, _read_operands(ns, stdin))
        out.write(_bool_line(equivalent(a, b)))
    elif verb == "mul":
        a, b = map(textio.parse_diagram, _read_operands(ns, stdin))
        out.write(textio.emit_diagram(multiply(a, b)))
    elif verb == "inv":
        out.write(textio.emit_diagram(invert(textio.parse_diagram(_read(ns.file, stdin)))))
    elif verb == "word":
        g = from_word(textio.parse_word(_read(ns.file, stdin)))
        out.write(textio.emit_diagram(g.rep))
    elif verb == "pl-eval":
        g = from_word(textio.parse_word(_read(ns.file, stdin)))
        m = to_pl(g)
        if ns.show_map:
            for x, y in m.points:
                out.write(f"{x} {y}\n")
        elif ns.at is None:
            raise FormatError("pl-eval needs a point or --map")
        else:
            out.write(f"{pl_eval(m, textio.parse_rational(ns.at))}\n")
    elif verb == "cmap":
        g = textio.parse_generalized(_read(ns.file, stdin))
        out.write(textio.emit_config(configspace.config_map(g)))
    elif verb == "in-cf":
        t = textio.parse_config(_read(ns.file, stdin))
        out.write(_bool_line(configspace.is_in_cf(t)))
    elif verb == "in-df":
        t = textio.parse_config(_read(ns.file, stdin))
        out.write(_bool_line(configspace.is_in_df(t)))
    elif verb == "canon-cf":
        t = textio.parse_config(_read(ns.file, stdin))
        out.write(textio.emit_config(configspace.canonicalize_cf(t)))
    elif verb == "retract":
        t = textio.parse_config(_read(ns.file, stdin))
        out.write(textio.emit_config(configspace.retract(t)))
    elif verb == "path-sample":
        t = textio.parse_config(_read(ns.file, stdin))
        s = textio.parse_rational(ns.time)
        out.write(textio.emit_config(configspace.retract_path(t, s)))
    elif verb == "section":
        t = textio.parse_config(_read(ns.file, stdin))
        out.write(textio.emit_generalized(configspace.df_section(t)))
    elif verb == "upper-bound":
        x, y = map(_vertex, _read_operands(ns, stdin))
        out.write(textio.emit_diagram(cubes.upper_bound(x, y).diagram))
    elif verb == "forests":
        if ns.n < 1:
            raise DomainError("strand count must be at least 1")
        if cubes.forest_count(ns.n, ns.n) > cubes.CAP:
            raise DomainError(f"{ns.n} strands carry more than {cubes.CAP} forests")
        for f in cubes.elementary_forests_at(ns.n):
            out.write(str(f) + "\n")
    elif verb == "cubes":
        v = _vertex(_read(ns.file, stdin))
        if ns.max_dim < 0:
            raise DomainError("max dimension must be nonnegative")
        if cubes.forest_count(v.n, ns.max_dim) > cubes.CAP:
            raise DomainError(f"a vertex with {v.n} sinks has more than {cubes.CAP} cubes "
                              f"of dimension at most {ns.max_dim}")
        for cube in cubes.cubes_at(v, ns.max_dim):
            splits = "".join(cube.splits.components)
            out.write(f"dim={cube.dimension} top={cube.top.label()} splits={splits}\n")
    elif verb == "ball":
        v = _vertex(_read(ns.file, stdin))
        g = cubes.ball(v, ns.radius, quotient=ns.quotient, cap=ns.cap)
        out.write(render.ball_dot(g) if ns.dot else render.ball_edge_text(g))
    elif verb == "holonomy":
        moves = textio.parse_moves(_read(ns.file, stdin))
        out.write(textio.emit_diagram(cubes.holonomy(moves).rep))
    elif verb == "render":
        _render(ns, stdin, out)
    else:  # pragma: no cover - argparse enforces the verb set
        raise FormatError(f"unknown verb {verb!r}")


def _render(ns: argparse.Namespace, stdin: io.TextIOBase, out: io.TextIOBase) -> None:
    text = _read(ns.file, stdin)
    fmt = ns.fmt or ("dot" if ns.kind == "ball" else "svg")
    spec = render.RenderSpec(scale=ns.scale, labels=not ns.no_labels)
    if ns.kind == "diagram":
        if fmt == "text":
            out.write(textio.emit_diagram(textio.parse_diagram(text)))
            return
        if fmt != "svg":
            raise FormatError("diagrams render to svg or text")
        out.write(render.render_diagram_svg(textio.parse_diagram(text), spec))
    elif ns.kind == "generalized":
        if fmt != "svg":
            raise FormatError("generalized diagrams render to svg")
        out.write(render.render_generalized_svg(textio.parse_generalized(text), spec))
    elif ns.kind == "config":
        if fmt != "svg":
            raise FormatError("configurations render to svg")
        t = configspace.require_cf(textio.parse_config(text))
        out.write(render.render_config_svg(t, spec))
    else:  # ball: re-render an edge list
        graph = textio.parse_ball(text)
        if fmt == "text":
            out.write(render.ball_edge_text(graph))
            return
        if fmt != "dot":
            raise FormatError("balls render to dot or text")
        out.write(render.ball_dot(graph))


def run(argv: list[str], stdin_text: str = "",
        _stdin: io.TextIOBase | None = None) -> tuple[int, str, str]:
    """Run one invocation; returns (exit code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    try:
        # help goes to ``out`` and bad invocations to ``err``, as with a shell
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2, out.getvalue(), err.getvalue())
    try:
        _dispatch(ns, _stdin if _stdin is not None else io.StringIO(stdin_text), out)
    except FormatError as exc:
        return 2, out.getvalue(), _line("error", str(exc))
    except DomainError as exc:
        return 1, out.getvalue(), _line("rejected", str(exc))
    except (InvariantViolation, RecursionError, MemoryError) as exc:
        return 3, out.getvalue(), _line(
            "internal error", f"{str(exc) or type(exc).__name__} (argv: {' '.join(argv)})")
    return 0, out.getvalue(), err.getvalue()


def main() -> None:
    code, out, err = run(sys.argv[1:], _stdin=sys.stdin)
    sys.stdout.write(out)
    sys.stderr.write(err)
    raise SystemExit(code)
