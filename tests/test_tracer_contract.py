"""The names the benchmark tracer looks up all exist in the library.

``perfbench/spans.py`` rebinds every entry point in its ``TRACED`` and
``TRACED_METHODS`` tables with ``getattr``, so renaming or removing one
of them breaks ``perfbench/run.py --trace 1``.  The rebinding must also
reach the calls the command line makes.
"""

from importlib import import_module
from pathlib import Path

import pytest

import fstrands
from fstrands import cli
from fstrands.diagrams import StrandDiagram
from fstrands.thompson import from_word, merge_free_form, to_pl

from helpers import split_count

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_traced_names_resolve(spans):
    assert spans.TRACED
    for mod_name, funcs in spans.TRACED.items():
        mod = import_module(f"fstrands.{mod_name}")
        for fname in funcs:
            assert callable(getattr(mod, fname)), f"{mod_name}.{fname}"
    for (mod_name, cls_name, meth) in spans.TRACED_METHODS:
        cls = getattr(import_module(f"fstrands.{mod_name}"), cls_name)
        assert callable(getattr(cls, meth)), f"{cls_name}.{meth}"


def test_merge_free_form_returns_diagram_and_rounds(spans):
    # the tracer's hook reads ``result[0].n`` and ``result[1]``
    result = merge_free_form(from_word("abAB").rep)
    assert isinstance(result, tuple) and len(result) == 2
    form, rounds = result
    assert isinstance(form, StrandDiagram) and type(rounds) is int
    assert form.n == split_count(from_word("abAB").rep) + 1


def test_to_pl_result_has_points(spans):
    # the tracer's ``_to_pl`` hook reads ``len(result.points)``
    g = from_word("abAB")
    m = to_pl(g)
    tr = spans.Tracer()
    spans._HOOKS["thompson.to_pl"](tr, (g,), m, False)
    assert tr.counters[("thompson.to_pl.breakpoints", "")] == len(m.points)


@pytest.mark.parametrize("argv, text, seen", [
    (["reduce", "-"], "diagram 1\nS 1\nM 1\n",
     {"textio.parse", "diagrams.reduce", "textio.emit"}),
    (["mul", "-", "FILE"], "diagram 1\nS 1\n", {"diagrams.multiply"}),
    (["section", "-"], "1 3/2 5/2\n", {"configspace.df_section"}),
    (["render", "-", "--kind", "config"], "1 3/2 5/2\n", {"render"}),
], ids=["reduce", "mul", "section", "render-config"])
def test_tracer_reaches_the_cli_library_calls(spans, tmp_path, argv, text, seen):
    # the cli must look library names up per call, or the rebinding misses it
    path = tmp_path / "merge.diagram"  # the second factor of ``mul``
    path.write_text("diagram 2\nM 1\n")
    argv = [str(path) if a == "FILE" else a for a in argv]
    tr = spans.Tracer()
    tr.install(fstrands)
    try:
        code, _, err = cli.run(argv, text)
    finally:
        tr.uninstall()
    assert (code, err) == (0, "")
    assert seen <= {tr.names[i] for i in tr.name}
