"""Spans around each layer's functions, recorded from outside the program.

The benchmark opens spans around the calls it makes itself (parse, analyze,
report); ``patched`` swaps the names ``analyze`` looks up at call time for
wrappers that open a span around the original.  A name the program no
longer has is skipped, so its time shows up as the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from contextlib import contextmanager, nullcontext

# (module, attribute, span): the names analyze() looks up in its own module
# at call time, and the Graph method the clique-tree step calls.
# _clique_tree_from_mcs is build_clique_tree(g) after its mcs_order(g) call.
TARGETS = (
    ("strictchordal.vulnerability", "mcs_order", "chordal.mcs_order"),
    ("strictchordal.vulnerability", "_clique_tree_from_mcs", "chordal.clique_tree"),
    ("strictchordal.vulnerability", "minimal_vertex_separators",
     "chordal.minimal_vertex_separators"),
    ("strictchordal.vulnerability", "separator_overlap", "recognition.is_strictly_chordal"),
    ("strictchordal.vulnerability", "build_cb", "recognition.build_cb"),
    ("strictchordal.vulnerability", "classify", "vulnerability.classify"),
    ("strictchordal.vulnerability", "toughness", "vulnerability.toughness"),
    ("strictchordal.vulnerability", "scattering_single_mvs", "vulnerability.scattering_single_mvs"),
    ("strictchordal.vulnerability", "scattering_tough_ge_1", "vulnerability.scattering_tough_ge_1"),
    ("strictchordal.vulnerability", "scattering_type_a", "vulnerability.scattering_type_a"),
    ("strictchordal.vulnerability", "scattering_set_type_b", "vulnerability.scattering_set_type_b"),
    ("strictchordal.vulnerability", "connected_components", "graph.connected_components"),
    ("strictchordal.graph", "Graph.csr", "graph.csr"),
)

# spans whose self times make up vulnerability.dispatch.s
DISPATCH = ("vulnerability.classify", "vulnerability.toughness",
            "vulnerability.scattering_single_mvs", "vulnerability.scattering_tough_ge_1",
            "vulnerability.scattering_type_a")


class NullTracer:
    """Tracing off: spans cost one call to a shared null context."""

    _null = nullcontext()

    def span(self, name):
        return self._null


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, input id]."""

    def __init__(self):
        self.spans = []
        self.input_id = -1
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, self.input_id]
        self.spans.append(record)
        self._open.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def totals(self):
        """{span name: (self seconds, inclusive seconds, calls)}."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own, incl, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (own + end - start - covered[i], incl + end - start, calls + 1)
        return out


ALLOC_LAYERS = ("graph", "chordal", "recognition", "cli")


class AllocTracker:
    """Largest tracemalloc peak of one call into each of ALLOC_LAYERS (the
    span name's first part).  Only the outermost such call is measured: a
    nested one would reset the peak its caller is measuring."""

    def __init__(self):
        self.peak_bytes = dict.fromkeys(ALLOC_LAYERS, 0)
        self._depth = 0

    @contextmanager
    def span(self, name):
        layer = name.split(".")[0]
        if self._depth or layer not in self.peak_bytes:
            yield
            return
        self._depth += 1
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1] - base
            self._depth -= 1
            self.peak_bytes[layer] = max(self.peak_bytes[layer], peak)


def _wrap(recorder, fn, name):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)
    return traced


@contextmanager
def patched(recorder):
    """Wrap every target the program has in ``recorder.span``; yields the
    names patched and restores the originals on exit."""
    saved = []
    try:
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = vars(owner).get(leaf)
            if not callable(fn):
                continue
            saved.append((owner, leaf, fn))
            setattr(owner, leaf, _wrap(recorder, fn, name))
        yield [f"{owner.__name__}.{leaf}" for owner, leaf, _ in saved]
    finally:
        for owner, leaf, fn in reversed(saved):
            setattr(owner, leaf, fn)
