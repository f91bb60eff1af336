"""The public API is a decided list: ``strictchordal.__all__`` must equal it,
and README must name every entry.  Adding, removing or renaming a public
name fails here until this list and README are changed with it."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import strictchordal
from strictchordal.cli import report_document
from strictchordal.errors import NotChordalError, NotStrictlyChordalError
from strictchordal.generator import GenParams, random_strictly_chordal

FIXTURES = Path(__file__).parent / "fixtures"
FIG1 = FIXTURES / "fig1.gr"

PUBLIC = [
    "CASE_COMPLETE",
    "CASE_SINGLE_MVS",
    "CASE_TOUGH_GE_1",
    "CASE_TYPE_A",
    "CASE_TYPE_B",
    "CliqueTree",
    "CompleteGraphError",
    "GenParams",
    "Graph",
    "GraphError",
    "InternalError",
    "NotChordalError",
    "NotConnectedError",
    "NotStrictlyChordalError",
    "OracleResult",
    "ParseError",
    "Separators",
    "TooLargeError",
    "VulnerabilityReport",
    "analyze",
    "brute_force_scattering",
    "brute_force_toughness",
    "build_clique_tree",
    "classify",
    "connected_components",
    "mcs_order",
    "minimal_vertex_separators",
    "parse_graph",
    "random_strictly_chordal",
    "restricted_scattering",
    "restricted_toughness",
    "scattering_set_type_b",
    "scattering_tough_ge_1",
    "serialize_graph",
    "toughness",
    "verify_peo",
]


def test_public_names_are_the_decided_list():
    assert PUBLIC == sorted(PUBLIC)
    assert strictchordal.__all__ == PUBLIC
    assert all(hasattr(strictchordal, name) for name in PUBLIC)


def test_readme_names_every_public_name():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    quoted = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)", readme))
    assert [name for name in PUBLIC if name not in quoted] == []


def test_star_import_dir_and_unknown_names():
    names = {}
    exec("from strictchordal import *", names)
    assert sorted(set(names) - {"__builtins__"}) == PUBLIC
    assert set(PUBLIC) <= set(dir(strictchordal))
    with pytest.raises(AttributeError, match="module 'strictchordal' has no attribute 'nope'"):
        strictchordal.nope


def _modules_after(code):
    """The names in sys.modules of a fresh interpreter that ran ``code``."""
    src = str(Path(strictchordal.__file__).resolve().parent.parent)
    code += "\nimport sys\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_analysis_path_loads_neither_oracles_nor_generator():
    # the library path: parse, analyze, report
    loaded = _modules_after(f"""
import strictchordal
from strictchordal.cli import report_document
g = strictchordal.parse_graph(open({str(FIG1)!r}).read())
report_document(g, strictchordal.analyze(g))
""")
    assert {"strictchordal.vulnerability", "strictchordal.cli"} <= loaded
    assert loaded.isdisjoint({"strictchordal.generator", "strictchordal.oracle", "argparse"})
    # python -m strictchordal analyze fig1.gr
    loaded = _modules_after(f"""
import runpy, sys
sys.argv = ["strictchordal", "analyze", {str(FIG1)!r}]
try:
    runpy.run_module("strictchordal", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
""")
    assert {"strictchordal.vulnerability", "argparse"} <= loaded
    assert loaded.isdisjoint({"strictchordal.generator", "strictchordal.oracle"})


# numpy functions that are Python code over a C entry point (the NEP 18
# dispatch layer and argument handling).  Each call costs Python frames that
# the ndarray method, slice or constructor doing the same work does not; at
# small n those frames cost more than the algorithm.
NUMPY_WRAPPERS = [np.cumsum, np.diff, np.repeat, np.argsort, np.searchsorted, np.flatnonzero,
                  np.append, np.ones, np.full, np.array_equal]


def test_analysis_path_enters_no_numpy_python_wrapper():
    # matched by function object, not by file path: the wrapped Python
    # function is the one whose frame is entered, in every numpy version
    names = {inspect.unwrap(fn).__code__: fn.__name__ for fn in NUMPY_WRAPPERS}
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            entered.append(names[frame.f_code])

    def profiled(fn, *args):
        old = sys.getprofile()
        sys.setprofile(profile)
        try:
            return fn(*args)
        finally:
            sys.setprofile(old)

    def run(text):
        g = strictchordal.parse_graph(text)
        report = strictchordal.analyze(g)
        report_document(g, report)
        return g, report

    g, report = profiled(run, strictchordal.serialize_graph(random_strictly_chordal(
        GenParams(seed=3, target_n=120, max_block_size=5, max_twins=3))))
    assert report.case == "type_b" and 3 * (len(report.clique_tree.class_ptr) - 1) < g.n
    assert profiled(run, FIG1.read_text())[1].case == "tough_ge_1"
    with pytest.raises(NotChordalError):
        profiled(run, (FIXTURES / "c4.gr").read_text())
    with pytest.raises(NotStrictlyChordalError):
        profiled(run, (FIXTURES / "dart.gr").read_text())
    assert entered == []
    profiled(np.cumsum, [1])  # the hook does see a wrapper's call
    assert entered == ["cumsum"]
