"""Command-line front end.

Every verb reads files (or "-" for standard input), writes its result to
standard output, and reports problems on standard error.  Exit codes:
0 on success, 1 when a well-formed input violates a verb's domain
(not a configuration, arity mismatch, and so on), 2 on parse errors or
bad invocations, 3 when an internal invariant fails or the recursion
limit or memory runs out (a bug; the message names the arguments).
Invocations are controlled entirely by flags; there are no environment
variables or config files.

Each verb is declared once, in ``_VERBS``, which both the parser and the
dispatch read.  Handlers look library functions up when they run, so a
rebound module attribute (a monkeypatch, a tracer) reaches them.
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

#: verb -> (help text, argument specs, handler), in ``--help`` order.  A
#: handler takes the parsed namespace and standard input, returns the output.
_VERBS: dict[str, tuple] = {}


class _Parser(argparse.ArgumentParser):
    """Reports a bad invocation in one line, without the usage block."""

    def error(self, message: str):
        self.exit(2, _line("error", message))


def _line(prefix: str, message: str) -> str:
    """One stderr line, even when the message quotes a newline from the input."""
    return f"{prefix}: {' '.join(message.splitlines())}\n"


def _arg(*flags: str, **kw) -> tuple[tuple[str, ...], dict]:
    """The arguments of one ``add_argument`` call, for ``_VERBS``."""
    return flags, kw


_FILE = _arg("file")
_OPERANDS = (_arg("left"), _arg("right"))


def _verb(name: str, help_: str, *args: tuple[tuple[str, ...], dict]):
    """Register the decorated handler as verb ``name``."""
    def register(handler):
        _VERBS[name] = (help_, args, handler)
        return handler
    return register


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="fstrands",
        description="Strand diagram calculus, cube complex and configuration tools",
    )
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, (help_, args, _) in _VERBS.items():
        p = sub.add_parser(verb, help=help_)
        for flags, kw in args:
            p.add_argument(*flags, **kw)
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


def _config(ns: argparse.Namespace, stdin: io.TextIOBase) -> configspace.Config:
    return textio.parse_config(_read(ns.file, stdin))


@_verb("reduce", "reduce a diagram file", _FILE)
def _reduce(ns, stdin):
    return textio.emit_diagram(reduce(textio.parse_diagram(_read(ns.file, stdin))))


@_verb("eq", "compare two diagram files up to reduction", *_OPERANDS)
def _eq(ns, stdin):
    a, b = map(textio.parse_diagram, _read_operands(ns, stdin))
    return _bool_line(equivalent(a, b))


@_verb("mul", "stack two diagram files", *_OPERANDS)
def _mul(ns, stdin):
    a, b = map(textio.parse_diagram, _read_operands(ns, stdin))
    return textio.emit_diagram(multiply(a, b))


@_verb("inv", "reflect a diagram file", _FILE)
def _inv(ns, stdin):
    return textio.emit_diagram(invert(textio.parse_diagram(_read(ns.file, stdin))))


@_verb("word", "canonical diagram of a generator word (letters a A b B)", _FILE)
def _word(ns, stdin):
    return textio.emit_diagram(from_word(textio.parse_word(_read(ns.file, stdin))).rep)


@_verb("pl-eval", "evaluate the PL map of a generator word", _FILE,
       _arg("at", nargs="?", default=None),
       _arg("--map", action="store_true", dest="show_map",
            help="print breakpoints instead of a value"))
def _pl_eval(ns, stdin):
    m = to_pl(from_word(textio.parse_word(_read(ns.file, stdin))))
    if ns.show_map:
        return "".join(f"{x} {y}\n" for x, y in m.points)
    if ns.at is None:
        raise FormatError("pl-eval needs a point or --map")
    return f"{pl_eval(m, textio.parse_rational(ns.at))}\n"


@_verb("cmap", "configuration of a generalized diagram file", _FILE)
def _cmap(ns, stdin):
    g = textio.parse_generalized(_read(ns.file, stdin))
    return textio.emit_config(configspace.config_map(g))


@_verb("in-cf", "configuration membership", _FILE)
def _in_cf(ns, stdin):
    return _bool_line(configspace.is_in_cf(_config(ns, stdin)))


@_verb("in-df", "image membership of a configuration", _FILE)
def _in_df(ns, stdin):
    return _bool_line(configspace.is_in_df(_config(ns, stdin)))


@_verb("canon-cf", "canonical duplicate-free representative", _FILE)
def _canon_cf(ns, stdin):
    return textio.emit_config(configspace.canonicalize_cf(_config(ns, stdin)))


@_verb("retract", "retract a configuration onto the image", _FILE)
def _retract(ns, stdin):
    return textio.emit_config(configspace.retract(_config(ns, stdin)))


@_verb("path-sample", "sample the retraction path at a time in [0,1]",
       _FILE, _arg("time"))
def _path_sample(ns, stdin):
    t = _config(ns, stdin)
    s = textio.parse_rational(ns.time)
    return textio.emit_config(configspace.retract_path(t, s))


@_verb("section", "generalized diagram over an image configuration", _FILE)
def _section(ns, stdin):
    return textio.emit_generalized(configspace.df_section(_config(ns, stdin)))


@_verb("upper-bound", "common splitting refinement of two (1,n) diagrams", *_OPERANDS)
def _upper_bound(ns, stdin):
    x, y = map(_vertex, _read_operands(ns, stdin))
    return textio.emit_diagram(cubes.upper_bound(x, y).diagram)


@_verb("forests", "list elementary forests on n strands", _arg("n", type=int))
def _forests(ns, stdin):
    if cubes.forest_count(ns.n, ns.n) > cubes.CAP:
        raise DomainError(f"{ns.n} strands carry more than {cubes.CAP} forests")
    return "".join(f"{f}\n" for f in cubes.elementary_forests_at(ns.n))


@_verb("cubes", "cubes at a vertex diagram", _FILE,
       _arg("--max-dim", type=int, default=2))
def _cubes(ns, stdin):
    v = _vertex(_read(ns.file, stdin))
    if ns.max_dim < 0:
        raise DomainError("max dimension must be nonnegative")
    if cubes.forest_count(v.n, ns.max_dim) > cubes.CAP:
        raise DomainError(f"a vertex with {v.n} sinks has more than {cubes.CAP} cubes "
                          f"of dimension at most {ns.max_dim}")
    return "".join(f"dim={c.dimension} top={c.top.label()} splits={''.join(c.splits.components)}\n"
                   for c in cubes.cubes_at(v, ns.max_dim))


@_verb("ball", "1-skeleton ball around a vertex diagram", _FILE,
       _arg("radius", type=int), _arg("--quotient", action="store_true"),
       _arg("--cap", type=int, default=None),
       _arg("--dot", action="store_true", help="emit DOT instead of an edge list"))
def _ball(ns, stdin):
    v = _vertex(_read(ns.file, stdin))
    cap = cubes.CAP if ns.cap is None else ns.cap
    g = cubes.ball(v, ns.radius, quotient=ns.quotient, cap=cap)
    return render.ball_dot(g) if ns.dot else render.ball_edge_text(g)


@_verb("holonomy", "element carried by a move file", _FILE)
def _holonomy(ns, stdin):
    return textio.emit_diagram(cubes.holonomy(textio.parse_moves(_read(ns.file, stdin))).rep)


@_verb("render", "render an object to SVG or DOT", _FILE,
       _arg("--kind", required=True, choices=("diagram", "generalized", "config", "ball")),
       _arg("--format", dest="fmt", default=None, choices=("svg", "dot", "text")),
       _arg("--scale", type=float, default=40.0),
       _arg("--no-labels", action="store_true"))
def _render(ns, stdin):
    text = _read(ns.file, stdin)
    fmt = ns.fmt or ("dot" if ns.kind == "ball" else "svg")
    spec = render.RenderSpec(scale=ns.scale, labels=not ns.no_labels)
    if ns.kind == "diagram":
        if fmt == "text":
            return textio.emit_diagram(textio.parse_diagram(text))
        if fmt != "svg":
            raise FormatError("diagrams render to svg or text")
        return render.render_diagram_svg(textio.parse_diagram(text), spec)
    if ns.kind == "generalized":
        if fmt != "svg":
            raise FormatError("generalized diagrams render to svg")
        return render.render_generalized_svg(textio.parse_generalized(text), spec)
    if ns.kind == "config":
        if fmt != "svg":
            raise FormatError("configurations render to svg")
        t = configspace.require_cf(textio.parse_config(text))
        return render.render_config_svg(t, spec)
    graph = textio.parse_ball(text)  # ball: re-render an edge list
    if fmt == "text":
        return render.ball_edge_text(graph)
    if fmt != "dot":
        raise FormatError("balls render to dot or text")
    return render.ball_dot(graph)


def _dispatch(ns: argparse.Namespace, stdin: io.TextIOBase, out: io.TextIOBase) -> None:
    out.write(_VERBS[ns.verb][2](ns, stdin))


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
