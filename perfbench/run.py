"""Benchmark of the user's path: file text -> parse_graph -> analyze ->
report_document + json.dumps, or file text -> the raised witness in file
numbering for an input outside the class.

    python3 perfbench/run.py --workload typeb_large --seed 1 --seconds 20 --trace 0

Load model: one process, one thread, GC on, closed loop (each input starts
after the previous one finished), whole passes over the workload's inputs
until the timed work reaches --seconds.  --trace 0 prints the end-to-end
metrics; --trace 1 prints per-layer metrics from a traced run, a separate
untraced run (for the tracing overhead) and a tracemalloc pass.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import check
import gen
from hostspeed import REF_S, reference_time
from spans import DISPATCH, AllocTracker, NullTracer, Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 6  # before and again after the timed loop
REF_EVERY_S = 0.1  # wall time between reference measurements in the timed loop
ALLOC_INPUTS = 300  # tracemalloc pass covers the first inputs of a workload

# Measured in a fresh interpreter: import plus one pass on the warm-up input,
# corrected to the reference host speed by the reference time taken in the
# same interpreter before and after.  numpy is imported before the clock
# starts: its import time swings by half with the host's file-system load,
# and no change to this repository moves it.
_SETUP_CHILD = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[2])
from hostspeed import reference_time
text = sys.stdin.read()
ref_before = reference_time()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
import strictchordal
from strictchordal.cli import report_document
g = strictchordal.parse_graph(text)
json.dumps(report_document(g, strictchordal.analyze(g)), indent=2)
elapsed = time.perf_counter() - t0
print(elapsed, (ref_before + reference_time()) / 2)
"""


class Pipeline:
    """The program's entry points, imported from the checkout's src/."""

    def __init__(self):
        from strictchordal import cli, errors, graph, vulnerability

        self.parse_graph = graph.parse_graph
        self.analyze = vulnerability.analyze
        self.report_document = cli.report_document
        self.errors = errors

    def process(self, inp, tracer):
        """(kind, payload, graph) for one input; kind is gen.IN_CLASS with
        payload (doc, json length), or a rejection kind with its witness."""
        err = self.errors
        with tracer.span("e2e"):
            with tracer.span("graph.parse_graph"):
                g = self.parse_graph(inp.text)
            try:
                with tracer.span("vulnerability.analyze"):
                    report = self.analyze(g)
            except err.NotConnectedError:
                return gen.DISCONNECTED, None, g
            except err.NotChordalError as exc:
                cycle = None if exc.cycle is None else [v + g.id_base for v in exc.cycle]
                return gen.CHORDLESS, cycle, g
            except err.NotStrictlyChordalError as exc:
                vertex = None if exc.vertex is None else exc.vertex + g.id_base
                seps = exc.separators or (None, None)
                witness = [vertex] + [None if s is None else sorted(v + g.id_base for v in s)
                                      for s in seps]
                return gen.OVERLAP, witness, g
            with tracer.span("cli.report_document"):
                doc = self.report_document(g, report)
                size = len(json.dumps(doc, indent=2))
            return gen.IN_CLASS, (doc, size), g


class Judge:
    """Checks every output: the first one per input against the reference,
    later ones for equality with the first (``timings_ms`` removed)."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.accepted = {}
        self.failed = 0
        self.attempted = 0

    def __call__(self, i, kind, payload):
        self.attempted += 1
        if kind == gen.IN_CLASS:
            doc = payload[0]
            doc.pop("timings_ms", None)
        # a string, which the collector does not scan, in place of the document
        key = json.dumps([kind, payload[0] if kind == gen.IN_CLASS else payload], sort_keys=True)
        first = self.accepted.get(i)
        if first is not None:
            problem = None if key == first else "output differs from this input's first output"
        else:
            try:
                if kind == gen.IN_CLASS:
                    problem = check.check_report(self.inputs[i], doc)
                else:
                    problem = check.check_rejection(self.inputs[i], kind, payload)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"malformed output: {exc!r}"
        if problem is None:
            self.accepted.setdefault(i, key)
        else:
            self.fail(i, problem)

    def fail(self, i, problem):
        self.failed += 1
        if self.failed <= 5:
            print(f"check failed on {self.inputs[i].name}: {problem}", file=sys.stderr)


def closed_loop(pipe, inputs, seconds, tracer, judge, on_result=None):
    """Whole passes over ``inputs`` until the timed work reaches ``seconds``.

    Returns (latencies, refs), each a list per pass with one entry per input:
    the input's wall time and the host's reference time around it, the mean
    of the reference measurements before and after its block of inputs (a
    block ends once REF_EVERY_S of wall time has passed).  Checks run
    between inputs, off the clock.
    """
    passes, refs = [], []
    pending = []  # refs slots of the inputs timed since the last reference
    busy = 0.0
    ref_before = reference_time()
    block_start = time.perf_counter()
    while busy < seconds or not passes:
        latencies, local = [], []
        for i, inp in enumerate(inputs):
            tracer.input_id = i
            t0 = time.perf_counter()
            try:
                kind, payload, g = pipe.process(inp, tracer)
            except Exception:  # a crash is a failed input, not a stopped run
                elapsed = time.perf_counter() - t0
                judge.attempted += 1
                judge.fail(i, traceback.format_exc())
            else:
                elapsed = time.perf_counter() - t0
                if on_result is not None:
                    on_result(inp, kind, payload, g)
                judge(i, kind, payload)
            latencies.append(elapsed)
            local.append(None)
            pending.append((local, len(local) - 1))
            if time.perf_counter() - block_start >= REF_EVERY_S:
                ref_before = _close_block(pending, ref_before)
                block_start = time.perf_counter()
        passes.append(latencies)
        refs.append(local)
        busy += sum(latencies)
    if pending:
        _close_block(pending, ref_before)
    return passes, refs


def _close_block(pending, ref_before):
    """Give every pending input the mean reference time around its block."""
    ref_after = reference_time()
    ref = (ref_before + ref_after) / 2
    for local, k in pending:
        local[k] = ref
    pending.clear()
    return ref_after


def measure_setup():
    """SETUP_REPEATS timings of import + one warm-up pass, each in a fresh
    interpreter, as (wall seconds, reference time) pairs."""
    text = gen.warmup_input().text
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE)],
                              input=text, capture_output=True, text=True, timeout=120,
                              check=True)
        elapsed, ref = map(float, done.stdout.strip().splitlines()[-1].split())
        samples.append((elapsed, ref))
    return samples


def environment(workload, seed):
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if done.returncode == 0:
                sha = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "load_model": "closed loop, 1 process, 1 thread, GC on",
        "peak_rss_note": "peak_rss_mb is ru_maxrss of the whole benchmark process "
                         "(program, inputs and checker)",
    }


def end_to_end(pipe, inputs, seconds, judge):
    """The end-to-end metrics, each input's time corrected to the reference
    host speed (hostspeed.REF_S); the wall-clock figures are printed too."""
    raw, refs = closed_loop(pipe, inputs, seconds, NullTracer(), judge)
    scaled = [[t * REF_S / r for t, r in zip(p, q)] for p, q in zip(raw, refs)]
    nm = sum(inp.n + inp.m for inp in inputs)

    def figures(passes):
        latencies = [x for p in passes for x in p]
        pass_s = [sum(p) for p in passes]
        p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
        return {
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_p90_s": (p90, "s"),
            # per pass over the inputs, then the median over passes
            "throughput_nm_per_s": (statistics.median(nm / t for t in pass_s), "nm/s"),
            "inputs_per_s": (statistics.median(len(inputs) / t for t in pass_s), "1/s"),
        }

    ref_all = [r for q in refs for r in q]
    print(f"host speed: reference time median {statistics.median(ref_all) * 1e3:.4f} ms,"
          f" min {min(ref_all) * 1e3:.4f} ms, max {max(ref_all) * 1e3:.4f} ms"
          f" (REF_S = {REF_S * 1e3:g} ms)")
    for name, (value, unit) in figures(raw).items():
        print(f"wall clock, uncorrected: {name} = {value!r} {unit}")
    metrics = figures(scaled)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, sum(map(len, raw))


class Counts:
    """Per-input counts taken from the program's outputs during the traced run."""

    KEYS = ("graph.n", "graph.m", "graph.input_mb", "chordal.cliques", "chordal.clique_entries",
            "chordal.separators", "cli.json_bytes", "vulnerability.scattering_set_size",
            "vulnerability.picked_separators", "typeb_separators")

    def __init__(self):
        self.sums = dict.fromkeys(self.KEYS, 0)

    def __call__(self, inp, kind, payload, g):
        s = self.sums
        s["graph.n"] += g.n
        s["graph.m"] += g.m
        s["graph.input_mb"] += len(inp.text) / 1e6
        if kind != gen.IN_CLASS:
            return
        doc, size = payload
        s["chordal.cliques"] += doc["clique_count"]
        s["chordal.clique_entries"] += inp.expected.clique_entries
        s["chordal.separators"] += len(doc["separators"])
        s["cli.json_bytes"] += size
        chosen = set(doc["scattering"]["set"])
        s["vulnerability.scattering_set_size"] += len(chosen)
        if doc["case"] == gen.TYPE_B:
            # separators are disjoint, so a picked one is any one inside the set
            s["vulnerability.picked_separators"] += sum(
                1 for row in doc["separators"] if row["vertices"][0] in chosen)
            s["typeb_separators"] += len(doc["separators"])


def per_layer(pipe, inputs, seconds, judge):
    """Half the time untraced, half traced; then a tracemalloc pass."""
    untraced, _ = closed_loop(pipe, inputs, seconds / 2, NullTracer(), judge)
    tracer = Tracer()
    counts = Counts()
    with patched(tracer) as names:
        traced, _ = closed_loop(pipe, inputs, seconds / 2, tracer, judge, counts)
    passes = len(traced)
    print(f"traced names: {' '.join(names)}")
    totals = tracer.totals()

    def own(*names):
        return sum(totals.get(name, (0.0, 0.0, 0))[0] for name in names) / passes

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2] / passes

    alloc = AllocTracker()
    tracemalloc.start()
    try:
        with patched(alloc):
            for inp in inputs[:ALLOC_INPUTS]:
                try:
                    pipe.process(inp, alloc)
                except Exception:  # already counted as failed by the timed runs
                    pass
    finally:
        tracemalloc.stop()

    c = {k: v / passes for k, v in counts.sums.items()}
    e2e_traced = sum(map(sum, traced)) / passes
    e2e_plain = sum(map(sum, untraced)) / len(untraced)
    analyze_incl = totals.get("vulnerability.analyze", (0.0, 0.0, 0))[1] / passes
    chordal_s = own("chordal.mcs_order", "chordal.clique_tree", "chordal.minimal_vertex_separators")
    nm = c["graph.n"] + c["graph.m"]
    metrics = {
        "graph.parse_graph.s": (own("graph.parse_graph"), "s"),
        "graph.csr.s": (own("graph.csr"), "s"),
        "graph.connected_components.s": (own("graph.connected_components"), "s"),
        "graph.connected_components.calls": (calls("graph.connected_components"), "count"),
        "graph.n": (c["graph.n"], "count"),
        "graph.m": (c["graph.m"], "count"),
        "graph.input_mb": (c["graph.input_mb"], "MB"),
        "chordal.mcs_order.s": (own("chordal.mcs_order"), "s"),
        "chordal.clique_tree.s": (own("chordal.clique_tree"), "s"),
        "chordal.minimal_vertex_separators.s": (own("chordal.minimal_vertex_separators"), "s"),
        "chordal.cliques": (c["chordal.cliques"], "count"),
        "chordal.clique_entries": (c["chordal.clique_entries"], "count"),
        "chordal.separators": (c["chordal.separators"], "count"),
        "chordal.us_per_nm": (chordal_s / nm * 1e6 if nm else 0.0, "us"),
        "recognition.is_strictly_chordal.s": (own("recognition.is_strictly_chordal"), "s"),
        "recognition.build_cb.s": (own("recognition.build_cb"), "s"),
        "recognition.build_cb.calls": (calls("recognition.build_cb"), "count"),
        "vulnerability.analyze.s": (analyze_incl, "s"),
        "vulnerability.dispatch.s": (own(*DISPATCH), "s"),
        "vulnerability.scattering_set_type_b.s": (own("vulnerability.scattering_set_type_b"), "s"),
        "vulnerability.scattering_set_type_b.calls":
            (calls("vulnerability.scattering_set_type_b"), "count"),
        "vulnerability.picked_separators": (c["vulnerability.picked_separators"], "count"),
        "vulnerability.scattering_set_size": (c["vulnerability.scattering_set_size"], "count"),
        "vulnerability.picked_ratio": (c["vulnerability.picked_separators"] / c["typeb_separators"]
                                       if c["typeb_separators"] else 0.0, "ratio"),
        "cli.report_document.s": (own("cli.report_document"), "s"),
        "cli.json_bytes": (c["cli.json_bytes"], "bytes"),
        "trace.e2e_s": (e2e_traced, "s"),
        "trace.overhead_s": (e2e_traced - e2e_plain, "s"),
        "trace.glue_s": (own("e2e"), "s"),
        "trace.analyze_self_s": (own("vulnerability.analyze"), "s"),
    }
    for layer, peak in alloc.peak_bytes.items():
        metrics[f"{layer}.alloc_peak_mb"] = (peak / 1e6, "MB")

    layer_sum = sum(v[0] for name, v in totals.items() if name != "e2e") / passes
    print(f"coverage: layer self times {layer_sum:.6f} s + glue {own('e2e'):.6f} s"
          f" = traced e2e {e2e_traced:.6f} s; analyze self {own('vulnerability.analyze'):.6f} s"
          f" of {analyze_incl:.6f} s; overhead {e2e_traced - e2e_plain:+.6f} s per pass")
    if analyze_incl and own("vulnerability.analyze") > 0.1 * analyze_incl:
        print("warning: spans cover less than 90% of vulnerability.analyze;"
              " the program has calls the trace does not wrap", file=sys.stderr)
    return metrics, sum(map(len, traced + untraced)), tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "strictchordal" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'strictchordal'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pipe = Pipeline()

    tick = time.perf_counter()
    inputs = gen.WORKLOADS[args.workload](args.seed)
    gen_s = time.perf_counter() - tick
    env = environment(args.workload, args.seed)
    setup = measure_setup() if args.trace == 0 else []

    warm = gen.warmup_input()
    warm_judge = Judge([warm])
    closed_loop(pipe, [warm], 0.0, NullTracer(), warm_judge)
    judge = Judge(inputs)

    if args.trace == 0:
        metrics, samples = end_to_end(pipe, inputs, args.seconds, judge)
        # sampled on both sides of the loop, so it spans the whole run
        setup += measure_setup()
        print(f"wall clock, uncorrected: setup_s = {statistics.median(t for t, _ in setup)!r} s")
        metrics["setup_s"] = (statistics.median(t * REF_S / r for t, r in setup), "s")
    else:
        metrics, samples, spans = per_layer(pipe, inputs, args.seconds, judge)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with path.open("w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")

    failed = judge.failed + warm_judge.failed
    attempted = judge.attempted + warm_judge.attempted
    env.update(samples=samples, inputs=len(inputs), gen_s=gen_s,
               error_rate=failed / attempted)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"samples = {samples}; input generation {gen_s:.3f} s (not in setup_s);"
          f" error_rate = {failed}/{attempted}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
