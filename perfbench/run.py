#!/usr/bin/env python3
"""Benchmark of the fstrands library: seeded closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload words --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/selfcheck.py      # the benchmark's own checks
    python3 perfbench/golden.py         # re-record golden.json (seed answers)

One client, one thread, one process per workload: each op starts when the
previous one has returned, and every op checks its own answer.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same cycles run first untraced
and then traced, and the object holds the per-layer metrics.  The line
before it, ``{"info": ...}``, carries ungated figures: ``src_loc``, the
failure ratio, the p99 latency where at least 1000 ops ran, the repeat
share, per-class latencies and the address-space cap.  ``--workload all``
runs each workload in its own process and prints one table.  The
workloads, their size classes and the metrics each layer should move are
recorded in WORKLOADS.json.

The library is imported from ``src/`` of the checkout and is never
modified; tracing rebinds module attributes from outside (see spans.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fstrands"
OUT_DIR = HERE / "out"

#: Address-space cap of the benchmark process (and of the set-up children
#: it starts), so an exponential blow-up ends as a counted MemoryError.
ADDRESS_SPACE_CAP = 2 << 30
SETUP_FIRST = 3
SETUP_EVERY = 2.0
#: Fewest ops in a block, so each block's p90 has ten samples beyond it.
BLOCK_OPS = 100
WORKLOAD_NAMES = ("words", "oracle", "complex", "cli")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of the traced run.
CALLS_AND_SELF = (
    "diagrams.multiply", "diagrams.is_reduced", "diagrams.to_slices",
    "thompson.from_word", "thompson.to_pl", "thompson.merge_free_form",
    "cubes.upper_bound", "cubes.cubes_at", "cubes.parameterize", "cubes.orbit_key",
    "cubes.ball", "forests.canonicalize_generalized", "configspace.config_map",
    "configspace.df_section", "configspace.retract", "configspace.retract_path",
    "configspace.canonicalize_cf", "cli.run", "textio.parse", "textio.emit", "render",
)
SELF_ONLY = (
    "diagrams.reduce", "diagrams.invert", "diagrams.from_slices",
    "thompson.pl_compose", "cubes.leq", "forests.random_gmove",
)
COUNTERS = (
    ("diagrams.multiply.vertices_in", "count"),
    ("thompson.merge_free_form.rounds", "count"),
    ("thompson.merge_free_form.leaves", "count"),
    ("cubes.upper_bound.failed", "count"),
    ("cubes.cubes_at.forests_enumerated", "count"),
    ("cubes.cubes_at.cubes_yielded", "count"),
    ("cli.exit_0", "count"),
    ("cli.exit_1", "count"),
    ("cli.exit_2", "count"),
    ("textio.parse.bytes", "B"),
    ("textio.emit.bytes", "B"),
    ("render.bytes_out", "B"),
)
MODULES = ("diagrams", "thompson", "forests", "cubes", "configspace", "textio",
           "render", "cli")
# Growth: a layer's time per op size class.
WORD_CLASSES = ("L50", "L150", "L450", "a100", "a250", "a300")
PL_CLASSES = ("L8", "L16", "ab1", "ab2", "ab3", "ab4", "ab5", "ab6")
LADDER = PL_CLASSES[2:]
COMB_CLASSES = ("vertex", "c200", "c400", "c600", "c800")
STRAND_CLASSES = ("n6", "n8", "n10", "n12", "n14")
OVERHEAD = (
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.op_s", "s"),
    ("trace.layers_self_s", "s"),
    ("bench.op.self_s", "s"),
    ("bench.op.self_share", "ratio"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in output order."""
    spec = []
    for g in CALLS_AND_SELF:
        spec += [(f"{g}.calls", "count", "lower"), (f"{g}.self_s", "s", "lower")]
    spec += [(f"{g}.self_s", "s", "lower") for g in SELF_ONLY]
    spec += [(name, unit, "lower") for name, unit in COUNTERS]
    spec += [("thompson.leaves_per_breakpoint", "ratio", "lower"),
             ("cubes.cubes_at.yield_ratio", "ratio", "higher"),
             ("forests.canonicalize_generalized.multiplies_per_call", "ratio", "lower")]
    spec += [(f"module.{m}.self_s", "s", "lower") for m in MODULES]
    spec += [(f"diagrams.multiply.us_per_vertex.{c}", "us", "lower") for c in WORD_CLASSES]
    spec += [(f"thompson.from_word.ms_per_call.{c}", "ms", "lower") for c in WORD_CLASSES]
    spec += [(f"thompson.to_pl.ms_per_call.{c}", "ms", "lower") for c in PL_CLASSES]
    spec += [(f"thompson.leaves_per_breakpoint.{c}", "ratio", "lower") for c in LADDER]
    spec += [(f"cubes.upper_bound.ms_per_call.{c}", "ms", "lower") for c in COMB_CLASSES]
    spec += [(f"cubes.cubes_at.ms_per_call.{c}", "ms", "lower") for c in STRAND_CLASSES]
    spec += [(name, unit, "higher" if "ops_per_s" in name and "overhead" not in name
              else "lower") for name, unit in OVERHEAD]
    spec.append(("src_loc", "lines", "lower"))
    return spec


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def src_loc() -> int:
    """Non-blank, non-comment lines under src/fstrands/."""
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            s = line.strip()
            if s and not s.startswith("#"):
                total += 1
    return total


def cap_address_space() -> int:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return resource.getrlimit(resource.RLIMIT_AS)[0]


class Setup:
    """Set-up time: a fresh interpreter imports fstrands and runs one
    warm-up op; the child reports (import + op, import) seconds.

    Input generation happens here, in the parent.  The first child, which
    may compile the byte code, is discarded.  Further children are spread
    over the run, one after a cycle at most every SETUP_EVERY seconds, so
    that the median is not set by one moment's load on the machine.
    """

    def __init__(self, warmup_source: str) -> None:
        self.code = (
            "import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "t0 = time.perf_counter()\n"
            "import fstrands\n"
            "t1 = time.perf_counter()\n"
            f"{warmup_source}"
            "t2 = time.perf_counter()\n"
            "print(t2 - t0, t1 - t0)\n"
        )
        self.totals: list[float] = []
        self.imports: list[float] = []
        self.last = 0.0
        self._child()

    def _child(self) -> tuple[float, float]:
        proc = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            die(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        self.last = time.perf_counter()
        total, imp = map(float, proc.stdout.split())
        return total, imp

    def sample(self) -> None:
        total, imp = self._child()
        self.totals.append(total)
        self.imports.append(imp)

    def between_cycles(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY:
            self.sample()

    def medians(self) -> tuple[float, float]:
        return statistics.median(self.totals), statistics.median(self.imports)


class Loop:
    """One closed-loop client: runs ops back to back and records each."""

    def __init__(self, first_id: int = 0) -> None:
        self.first_id = first_id
        self.latency: list[float] = []
        self.sizes: list[str] = []
        self.keys: list[str] = []
        self.failed = 0
        self.wrong = 0
        self.errors: Counter = Counter()
        self.first_error = ""
        self.cycle_ends: list[int] = []

    def run_op(self, op, tracer=None) -> None:
        token = tracer.begin_op(self.first_id + len(self.latency), op.size) if tracer else None
        t0 = time.perf_counter()
        try:
            ok = op.fn(*op.args)
        except Exception as exc:  # every raise, RecursionError and MemoryError too, is a failed op
            ok = None
            self.errors[type(exc).__name__] += 1
            if not self.first_error:
                self.first_error = f"{op.kind}/{op.size}: {type(exc).__name__}: {exc}"[:300]
        t1 = time.perf_counter()
        if tracer:
            tracer.end_op(token)
        if ok is not True:
            self.failed += 1
            if ok is False:
                self.wrong += 1
                if not self.first_error:
                    self.first_error = f"{op.kind}/{op.size}: wrong answer"
        self.latency.append(t1 - t0)
        self.sizes.append(op.size)
        self.keys.append(op.key())

    def ops_per_s(self) -> float:
        return len(self.latency) / sum(self.latency)

    def blocks(self) -> list[list[float]]:
        """Latencies grouped into runs of whole cycles of at least
        BLOCK_OPS ops; a short tail joins the last block."""
        out: list[list[float]] = []
        start = 0
        for end in self.cycle_ends:
            if end - start >= BLOCK_OPS:
                out.append(self.latency[start:end])
                start = end
        tail = self.latency[start:]
        if tail and out:
            out[-1] = out[-1] + tail
        elif tail:
            out.append(tail)
        return out


def run_cycles(cycles, seconds: float | None, tracer=None, between=None) -> Loop:
    """Whole cycles until ``seconds`` have passed (or all given cycles);
    ``between`` is called after every cycle, outside the op timings."""
    loop = Loop()
    start = time.perf_counter()
    for ops in cycles:
        for op in ops:
            loop.run_op(op, tracer)
        loop.cycle_ends.append(len(loop.latency))
        if between is not None:
            between()
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return loop


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def info_block(name: str, seed: int, loop: Loop, cap: int, extra: dict) -> dict:
    seen: set[str] = set()
    repeats = 0
    for k in loop.keys:
        repeats += k in seen
        seen.add(k)
    by_class: dict[str, list[float]] = {}
    for size, lat in zip(loop.sizes, loop.latency):
        by_class.setdefault(size, []).append(lat)
    n = len(loop.latency)
    info = {
        "workload": name,
        "seed": seed,
        "ops": n,
        "failed_ratio": loop.failed / n,
        "wrong_answers": loop.wrong,
        "errors": dict(loop.errors),
        "first_error": loop.first_error,
        "latency_p99_ms": quantile(loop.latency, 99) * 1e3 if n >= 1000 else None,
        "repeat_share": repeats / n,
        "inputs_digest": gen.digest(loop.keys),
        "class_latency_p50_ms": {c: statistics.median(v) * 1e3 for c, v in by_class.items()},
        "class_ops": {c: len(v) for c, v in by_class.items()},
        "address_space_cap_bytes": cap,
        "src_loc": src_loc(),
    }
    info.update(extra)
    return info


def end_to_end(loop: Loop, setup_s: float) -> dict:
    """Throughput and percentiles are medians over blocks of whole cycles,
    so a few seconds of interference from other tenants of the machine
    move them less than they move pooled figures."""
    blocks = loop.blocks()
    values = {
        "ops_per_s": statistics.median(len(b) / sum(b) for b in blocks),
        "latency_p50_ms": statistics.median(quantile(b, 50) for b in blocks) * 1e3,
        "latency_p90_ms": statistics.median(quantile(b, 90) for b in blocks) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(tracer, untraced: Loop, traced: Loop, probe_failed: float) -> dict:
    """Figures of the traced cycles; ``cubes.upper_bound.failed`` also
    counts the oracle's untimed comb probe (``probe_failed``)."""
    calls, self_s, total_s, child_calls = tracer.aggregate()

    def sum_over(table, name):
        return sum(v for (nm, _), v in table.items() if nm == name)

    def in_class(table, name, cls):
        return table.get((name, cls), 0)

    def counter(key, cls=None):
        if cls is None:
            return sum(v for (k, _), v in tracer.counters.items() if k == key)
        return tracer.counters.get((key, cls), 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    v: dict[str, float] = {}
    for g in CALLS_AND_SELF:
        v[f"{g}.calls"] = sum_over(calls, g)
        v[f"{g}.self_s"] = sum_over(self_s, g)
    for g in SELF_ONLY:
        v[f"{g}.self_s"] = sum_over(self_s, g)
    for name, _ in COUNTERS:
        v[name] = counter(name)
    v["cubes.upper_bound.failed"] += probe_failed
    v["thompson.leaves_per_breakpoint"] = ratio(counter("thompson.to_pl.leaves"),
                                                counter("thompson.to_pl.breakpoints"))
    v["cubes.cubes_at.yield_ratio"] = ratio(v["cubes.cubes_at.cubes_yielded"],
                                            v["cubes.cubes_at.forests_enumerated"])
    v["forests.canonicalize_generalized.multiplies_per_call"] = ratio(
        child_calls.get(("forests.canonicalize_generalized", "diagrams.multiply"), 0),
        v["forests.canonicalize_generalized.calls"])
    for m in MODULES:
        v[f"module.{m}.self_s"] = sum(s for (nm, _), s in self_s.items()
                                      if nm == m or nm.startswith(m + "."))
    for c in WORD_CLASSES:
        v[f"diagrams.multiply.us_per_vertex.{c}"] = 1e6 * ratio(
            in_class(self_s, "diagrams.multiply", c),
            counter("diagrams.multiply.vertices_in", c))
        v[f"thompson.from_word.ms_per_call.{c}"] = 1e3 * ratio(
            in_class(total_s, "thompson.from_word", c), in_class(calls, "thompson.from_word", c))
    for c in PL_CLASSES:
        v[f"thompson.to_pl.ms_per_call.{c}"] = 1e3 * ratio(
            in_class(total_s, "thompson.to_pl", c), in_class(calls, "thompson.to_pl", c))
    for c in LADDER:
        v[f"thompson.leaves_per_breakpoint.{c}"] = ratio(
            counter("thompson.to_pl.leaves", c), counter("thompson.to_pl.breakpoints", c))
    for c in COMB_CLASSES:
        v[f"cubes.upper_bound.ms_per_call.{c}"] = 1e3 * ratio(
            in_class(total_s, "cubes.upper_bound", c), in_class(calls, "cubes.upper_bound", c))
    for c in STRAND_CLASSES:
        v[f"cubes.cubes_at.ms_per_call.{c}"] = 1e3 * ratio(
            in_class(total_s, "cubes.cubes_at", c), in_class(calls, "cubes.cubes_at", c))
    op_s = sum(self_s.values())
    bench_self = sum_over(self_s, "bench.op")
    v["trace.ops_per_s_untraced"] = untraced.ops_per_s()
    v["trace.ops_per_s_traced"] = traced.ops_per_s()
    v["trace.overhead_ops_per_s"] = untraced.ops_per_s() - traced.ops_per_s()
    v["trace.overhead_share"] = ratio(v["trace.overhead_ops_per_s"], untraced.ops_per_s())
    v["trace.spans"] = len(tracer.start)
    v["trace.op_s"] = op_s
    v["trace.layers_self_s"] = op_s - bench_self
    v["bench.op.self_s"] = bench_self
    v["bench.op.self_share"] = ratio(bench_self, op_s)
    v["src_loc"] = src_loc()
    return {name: {"value": v[name], "unit": unit} for name, unit, _ in per_layer_spec()}


def growth_table(tracer) -> dict:
    """Inclusive ms per call of every traced layer, per op size class."""
    calls, _, total_s, _ = tracer.aggregate()
    table: dict[str, dict[str, float]] = {}
    for (name, cls), n in sorted(calls.items()):
        if name != "bench.op" and n:
            table.setdefault(name, {})[cls] = round(1e3 * total_s[(name, cls)] / n, 6)
    return table


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> None:
    cap = cap_address_space()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    setup = None if trace else Setup(workload.warmup_source())
    for _ in range(0 if trace else SETUP_FIRST):
        setup.sample()
    if trace:
        import fstrands
        import spans
    for op in workloads.cycle(workload):  # warm-up cycle, not measured
        Loop().run_op(op)
    extra: dict = {}
    probe_failed = 0.0
    if name == "oracle":
        # The probe runs before the timed cycles, on a heap they have not
        # fragmented, so the peak RSS its (ab)^8 sets does not depend on how
        # long the cycles ran or what they left behind.  Traced, it has a tracer of its own, so that only its
        # upper_bound failures join the per-layer figures of the cycles.
        probe = spans.Tracer() if trace else None
        if probe:
            probe.install(fstrands)
        extra.update(oracle_probe(workload, probe))
        if probe:
            probe.uninstall()
            probe_failed = sum(v for (k, _), v in probe.counters.items()
                               if k == "cubes.upper_bound.failed")
    cycles: list = []

    def fresh(keep: bool):
        while True:
            ops = workloads.cycle(workload)
            if keep:
                cycles.append(ops)
            yield ops

    # The harness's own long-lived objects leave the collector's view, so
    # collections during the loop scan what the library allocates.
    gc.collect()
    gc.freeze()
    if not trace:
        loop = run_cycles(fresh(False), seconds, between=setup.between_cycles)
        setup_s, extra["setup_import_s"] = setup.medians()
        extra["setup_samples"] = len(setup.totals)
        print(json.dumps({"info": info_block(name, seed, loop, cap, extra)}))
        result = {"correct": loop.failed == 0, "attempted": len(loop.latency),
                  "failed": loop.failed, "metrics": end_to_end(loop, setup_s)}
        print(json.dumps(result))
        return

    # The same cycles run untraced, then traced: the difference in
    # throughput is the tracing overhead.
    untraced = run_cycles(fresh(True), seconds / 2)
    tracer = spans.Tracer()
    tracer.install(fstrands)
    gc.collect()
    traced = run_cycles(list(cycles), None, tracer)
    tracer.uninstall()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl.gz"
    tracer.dump(path, {"workload": name, "seed": seed, "ops": len(traced.latency)})
    extra["trace_file"] = str(path.relative_to(ROOT))
    extra["growth_ms_per_call"] = growth_table(tracer)
    print(json.dumps({"info": info_block(name, seed, traced, cap, extra)}))
    result = {"correct": traced.failed == 0 and untraced.failed == 0,
              "attempted": len(traced.latency), "failed": traced.failed,
              "metrics": per_layer(tracer, untraced, traced, probe_failed)}
    print(json.dumps(result))


def oracle_probe(workload, tracer=None) -> dict:
    """Right combs of 200 to 1500 leaves, then (ab)^8, before the timed loop."""
    combs = Loop()
    for op in workload.probe():
        combs.run_op(op, tracer)
    peak = Loop(len(combs.latency))
    peak.run_op(workload.PEAK, tracer)
    return {"comb_probe_sizes": list(workload.PROBE),
            "comb_probe_failed_share": combs.failed / len(combs.latency),
            "comb_probe_errors": dict(combs.errors),
            "ladder_ab8_ms": peak.latency[0] * 1e3,
            "ladder_ab8_failed": peak.failed}


def run_all(seed: int, seconds: int) -> None:
    """Each workload in its own process; one table of every metric."""
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            die(f"workload {name} failed: {proc.stderr.strip()[-500:]}")
        lines = proc.stdout.strip().splitlines()
        info = json.loads(lines[-2])["info"]
        rows.append((name, info, json.loads(lines[-1])))
    cols = [(m, u) for m, u in END_TO_END[:3]] + [("latency_p99_ms", "ms"),
                                                  ("failed_ratio", "ratio")] + list(END_TO_END[3:])
    print("workload  " + "  ".join(f"{m} [{u}]" for m, u in cols))
    summary = {}
    attempted = failed = 0
    for name, info, res in rows:
        vals = {m: res["metrics"][m]["value"] for m, _ in END_TO_END}
        vals["latency_p99_ms"] = info["latency_p99_ms"]
        vals["failed_ratio"] = info["failed_ratio"]
        cells = ["n/a" if vals[m] is None else f"{vals[m]:.4g}" for m, _ in cols]
        print(f"{name:<9} " + "  ".join(cells))
        if name == "oracle":
            print(f"          oracle comb probe: {info['comb_probe_failed_share']:.4g} of "
                  f"right combs {info['comb_probe_sizes'][0]}..{info['comb_probe_sizes'][-1]} "
                  f"raise {info['comb_probe_errors']}")
        attempted += res["attempted"]
        failed += res["failed"]
        for m, u in cols:
            if vals[m] is not None:
                summary[f"{name}.{m}"] = {"value": vals[m], "unit": u}
    print(f"src_loc {rows[0][1]['src_loc']}")
    print(json.dumps({"correct": all(r["correct"] for _, _, r in rows), "attempted": attempted,
                      "failed": failed, "metrics": summary}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        die(f"no fstrands package under {SRC}; run from the root of a checkout")
    os.chdir(ROOT)  # cli requests name their input files relative to the root
    if args.seconds < 1:
        die("--seconds must be at least 1")
    if args.workload == "all":
        run_all(args.seed, args.seconds)
    else:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
