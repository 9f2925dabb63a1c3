"""In-memory span tracer installed from outside the library.

Each traced entry point is replaced, in every ``fstrands`` module that
binds it, by a wrapper that records one span: name, start, end, parent
span and op id.  Spans live in flat arrays while the run goes on and are
written out once it ends.  Self time is a span's duration minus the time
its child spans cover; since spans nest strictly, the self times of all
spans under one op add up to that op's duration.

The library itself is not changed: only module attributes and one class
attribute (``StrandDiagram.to_slices``) are rebound, so recursive private
helpers stay untraced and the tracer adds no stack depth inside them.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from gen import forest_count

#: module -> {function name: span name}.  Several functions may share a
#: span name (the parsers of ``textio`` all count as ``textio.parse``).
TRACED = {
    "diagrams": {
        "multiply": "diagrams.multiply",
        "reduce": "diagrams.reduce",
        "is_reduced": "diagrams.is_reduced",
        "invert": "diagrams.invert",
        "from_slices": "diagrams.from_slices",
        "identity": "diagrams.identity",
        "equivalent": "diagrams.equivalent",
    },
    "thompson": {
        "from_word": "thompson.from_word",
        "to_pl": "thompson.to_pl",
        "merge_free_form": "thompson.merge_free_form",
        "pl_compose": "thompson.pl_compose",
        "pl_eval": "thompson.pl_eval",
        "tree_diagram": "thompson.tree_diagram",
        "diagram_tree": "thompson.diagram_tree",
    },
    "forests": {
        "canonicalize_generalized": "forests.canonicalize_generalized",
        "random_gmove": "forests.random_gmove",
    },
    "cubes": {
        "cubes_at": "cubes.cubes_at",
        "cube_from_forest": "cubes.cube_from_forest",
        "parameterize": "cubes.parameterize",
        "orbit_key": "cubes.orbit_key",
        "left_act": "cubes.left_act",
        "ball": "cubes.ball",
        "upper_bound": "cubes.upper_bound",
        "leq": "cubes.leq",
        "holonomy": "cubes.holonomy",
    },
    "configspace": {
        "config_map": "configspace.config_map",
        "df_section": "configspace.df_section",
        "retract": "configspace.retract",
        "retract_path": "configspace.retract_path",
        "canonicalize_cf": "configspace.canonicalize_cf",
        "is_in_cf": "configspace.is_in_cf",
        "is_in_df": "configspace.is_in_df",
    },
    "textio": {
        "parse_diagram": "textio.parse",
        "parse_forest": "textio.parse",
        "parse_generalized": "textio.parse",
        "parse_word": "textio.parse",
        "parse_config": "textio.parse",
        "parse_moves": "textio.parse",
        "emit_diagram": "textio.emit",
        "emit_forest": "textio.emit",
        "emit_generalized": "textio.emit",
        "emit_config": "textio.emit",
    },
    "render": {
        "render_diagram_svg": "render",
        "render_generalized_svg": "render",
        "render_config_svg": "render",
        "ball_edge_text": "render",
        "ball_dot": "render",
    },
    "cli": {"run": "cli.run"},
}

#: The method traced on the class, so calls through instances are seen.
TRACED_METHODS = {("diagrams", "StrandDiagram", "to_slices"): "diagrams.to_slices"}

OP_SPAN = "bench.op"


class Tracer:
    """Spans in flat arrays plus counters attributed to the current op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.op_class = ""
        self.op_classes: list[str] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        # A generator closed late may not be on top; remove it where it is.
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        elif idx in self.stack:
            self.stack.remove(idx)
        self.start[idx] = t0
        self.end[idx] = t1

    def parent_name(self) -> str:
        """Name of the span enclosing the one currently open."""
        if len(self.stack) < 2:
            return ""
        return self.names[self.name[self.stack[-2]]]

    def begin_op(self, op_id: int, size_class: str) -> tuple[int, float]:
        self.op_id = op_id
        self.op_class = size_class
        while len(self.op_classes) <= op_id:
            self.op_classes.append("")
        self.op_classes[op_id] = size_class
        idx = self._open(self._nid(OP_SPAN))
        return idx, perf_counter()

    def end_op(self, token: tuple[int, float]) -> None:
        idx, t0 = token
        self._close(idx, t0, perf_counter())
        self.stack.clear()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[(key, self.op_class)] += value

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, span: str):
        nid = self._nid(span)
        hook = _HOOKS.get(span)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                idx = tracer._open(nid)
                t0 = perf_counter()
                yielded = 0
                try:
                    for item in fn(*args, **kwargs):
                        yielded += 1
                        yield item
                finally:
                    tracer._close(idx, t0, perf_counter())
                    if hook is not None:
                        hook(tracer, args, yielded, False)
            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            t0 = perf_counter()
            raised = True
            result = None
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = perf_counter()
                if hook is not None:
                    hook(tracer, args, result, raised)
                tracer._close(idx, t0, t1)
        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Rebind every traced entry point wherever the package binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        originals = {}
        for mod_name, funcs in TRACED.items():
            mod = sys.modules[f"{package.__name__}.{mod_name}"]
            for fname, span in funcs.items():
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self._wrap(fn, span))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for (mod_name, cls_name, meth), span in TRACED_METHODS.items():
            cls = getattr(sys.modules[f"{package.__name__}.{mod_name}"], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, span))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def aggregate(self):
        """Per (span name, op size class): outermost calls, self seconds and
        inclusive seconds, plus call counts per (parent name, child name).

        A span whose parent has the same name (``emit_generalized`` calling
        ``emit_diagram``) adds its self time but is not counted as a call.
        """
        selfs = self.self_times()
        calls: dict[tuple[str, str], int] = defaultdict(int)
        self_s: dict[tuple[str, str], float] = defaultdict(float)
        total_s: dict[tuple[str, str], float] = defaultdict(float)
        child_calls: dict[tuple[str, str], int] = defaultdict(int)
        names, name, parent, op = self.names, self.name, self.parent, self.op
        classes = self.op_classes
        for i in range(len(selfs)):
            nm = names[name[i]]
            cls = classes[op[i]] if op[i] >= 0 else ""
            self_s[(nm, cls)] += selfs[i]
            p = parent[i]
            pname = names[name[p]] if p >= 0 else ""
            if pname != nm:
                calls[(nm, cls)] += 1
                total_s[(nm, cls)] += self.end[i] - self.start[i]
            child_calls[(pname, nm)] += 1
        return calls, self_s, total_s, child_calls

    def dump(self, path, meta: dict) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        selfs = self.self_times()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"meta": meta, "names": self.names,
                                 "op_classes": self.op_classes}) + "\n")
            for i in range(len(selfs)):
                fh.write(
                    f"[{i},{self.name[i]},{self.parent[i]},{self.op[i]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f},{selfs[i]:.9f}]\n"
                )


# -- counters measured at the boundaries -----------------------------------


def _multiply(tr: Tracer, args, result, raised) -> None:
    tr.count("diagrams.multiply.vertices_in",
             args[0].vertex_count + args[1].vertex_count)


def _merge_free_form(tr: Tracer, args, result, raised) -> None:
    if raised:
        return
    tr.count("thompson.merge_free_form.rounds", result[1])
    tr.count("thompson.merge_free_form.leaves", result[0].n)
    if tr.parent_name() == "thompson.to_pl":
        tr.count("thompson.to_pl.leaves", result[0].n)


def _to_pl(tr: Tracer, args, result, raised) -> None:
    if not raised:
        tr.count("thompson.to_pl.breakpoints", len(result.points))


def _upper_bound(tr: Tracer, args, result, raised) -> None:
    if raised:
        tr.count("cubes.upper_bound.failed")


def _cubes_at(tr: Tracer, args, yielded, raised) -> None:
    tr.count("cubes.cubes_at.forests_enumerated", forest_count(args[0].n))
    tr.count("cubes.cubes_at.cubes_yielded", yielded)


def _cli_run(tr: Tracer, args, result, raised) -> None:
    if not raised:
        tr.count(f"cli.exit_{result[0]}")


def _parse(tr: Tracer, args, result, raised) -> None:
    if tr.parent_name() != "textio.parse":
        tr.count("textio.parse.bytes", len(args[0]))


def _emit(tr: Tracer, args, result, raised) -> None:
    if not raised and tr.parent_name() != "textio.emit":
        tr.count("textio.emit.bytes", len(result))


def _render(tr: Tracer, args, result, raised) -> None:
    if not raised:
        tr.count("render.bytes_out", len(result))


_HOOKS = {
    "diagrams.multiply": _multiply,
    "thompson.merge_free_form": _merge_free_form,
    "thompson.to_pl": _to_pl,
    "cubes.upper_bound": _upper_bound,
    "cubes.cubes_at": _cubes_at,
    "cli.run": _cli_run,
    "textio.parse": _parse,
    "textio.emit": _emit,
    "render": _render,
}
