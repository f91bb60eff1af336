"""The public API is a decided list: ``strictchordal.__all__`` must equal it,
and README must name every entry.  Adding, removing or renaming a public
name fails here until this list and README are changed with it."""

import copy
import inspect
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import strictchordal
from strictchordal import CliqueTree, Separators, VulnerabilityReport
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


# the answers a report compares and hashes by, in construction order
ANSWERS = ("case", "toughness", "tough_set", "scattering_number", "scattering_set",
           "clique_count")

# repr(report) on fig1.gr with timings {"twins": 0.5, "blocks": 0.25}, as the
# report's dataclass printed it before it became a slotted class
FIG1_REPR = (
    "VulnerabilityReport(case='tough_ge_1', toughness=Fraction(2, 1), tough_set=frozenset({0, 1,"
    " 2, 3, 4, 5, 6, 7, 8, 9}), scattering_number=-4, scattering_set=frozenset({10, 11, 12, 13,"
    " 14, 15, 16}), clique_count=7, separators=Separators(n_cliques=7, clique_sizes=array([17,"
    " 11, 11, 11, 11,  8,  8]), indptr=array([ 0, 10, 17]), indices=array([ 0,  1,  2,  3,  4, "
    " 5,  6,  7,  8,  9, 10, 11, 12, 13, 14, 15, 16]), sizes=array([10,  7]), mult=array([4, 2]),"
    " boundary=array([4, 2]), pair_sep=array([0, 0, 0, 0, 0, 1, 1, 1]), pair_clique=array([0, 1,"
    " 2, 3, 4, 0, 5, 6])), timings={'twins': 0.5, 'blocks': 0.25})"
)


def fig1_report():
    return strictchordal.analyze(strictchordal.parse_graph(FIG1.read_text()))


def test_reports_compare_and_hash_by_their_answers_alone():
    r = fig1_report()
    answers = {name: getattr(r, name) for name in ANSWERS}
    assert VulnerabilityReport.__slots__[:6] == ANSWERS
    other = strictchordal.analyze(strictchordal.parse_graph((FIXTURES / "fig2_g2.gr").read_text()))
    same = [
        VulnerabilityReport(**answers),  # the defaults: no table, no timings, no tree
        VulnerabilityReport(*answers.values(), other.separators, {"twins": 1.0},
                            other.clique_tree),
        VulnerabilityReport(**answers, separators=r.separators, timings={}),
        VulnerabilityReport(**answers, clique_tree=r.clique_tree),
    ]
    for twin in same:
        assert twin == r and not twin != r and hash(twin) == hash(r)
    assert same[0].separators == () and same[0].timings == {} and same[0].clique_tree is None
    assert same[0].timings is not VulnerabilityReport(**answers).timings
    for name in ANSWERS:
        assert VulnerabilityReport(**{**answers, name: getattr(other, name)}) != r, name
    assert r != tuple(answers.values()) and r != None  # noqa: E711


def test_report_repr_is_unchanged():
    r = fig1_report()
    fields = {name: getattr(r, name) for name in VulnerabilityReport.__slots__}
    fixed = VulnerabilityReport(**{**fields, "timings": {"twins": 0.5, "blocks": 0.25}})
    assert repr(fixed) == FIG1_REPR
    assert repr(r.clique_tree).startswith("CliqueTree(visit=array([")


def test_report_and_separators_are_read_only():
    r = fig1_report()
    for record in (r, r.separators):
        for name in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert r.case == "tough_ge_1" and r.separators.n_cliques == 7
    # the clique tree stays assignable
    ct = r.clique_tree
    ct.members = ct.members.copy()
    assert ct.members.tolist() == list(range(23))


def test_pickle_and_copy_round_trip_a_report():
    r = fig1_report()
    again = pickle.loads(pickle.dumps(r))
    assert type(again) is VulnerabilityReport and again == r and hash(again) == hash(r)
    assert repr(again) == repr(r) and again.timings == r.timings
    for name in Separators.__slots__:
        assert np.array_equal(getattr(again.separators, name), getattr(r.separators, name))
    for name in CliqueTree.__slots__:
        assert np.array_equal(getattr(again.clique_tree, name), getattr(r.clique_tree, name))
    shallow = copy.copy(r)
    assert shallow is not r and shallow == r and repr(shallow) == repr(r)
    assert all(getattr(shallow, name) is getattr(r, name) for name in VulnerabilityReport.__slots__)


def test_records_take_keywords_and_compare_by_identity():
    r = fig1_report()
    seps, ct = r.separators, r.clique_tree
    by_name = Separators(**{name: getattr(seps, name) for name in Separators.__slots__})
    tree = CliqueTree(**{name: getattr(ct, name) for name in CliqueTree.__slots__})
    assert repr(by_name) == repr(seps) and repr(tree) == repr(ct)
    assert repr(Separators(*(getattr(seps, name) for name in Separators.__slots__))) == repr(seps)
    # the tables compare by identity
    assert by_name != seps and by_name == by_name and tree != ct and tree == tree
    assert len({by_name, seps, tree, ct}) == 4


def _run_fresh(code):
    """The names in sys.modules of a fresh interpreter that ran ``code``, and
    its stderr."""
    src = str(Path(strictchordal.__file__).resolve().parent.parent)
    code += "\nimport sys\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split()), proc.stderr


def _modules_after(code):
    """The names in sys.modules of a fresh interpreter that ran ``code``."""
    return _run_fresh(code)[0]


def _cli_code(*argv, exit_code=0):
    """Code that runs ``python -m strictchordal *argv`` and checks its exit code."""
    return f"""
import runpy, sys
sys.argv = ["strictchordal", *{list(argv)!r}]
try:
    runpy.run_module("strictchordal", run_name="__main__")
except SystemExit as exc:
    assert exc.code == {exit_code}, exc.code
"""


def test_analysis_path_loads_neither_oracles_nor_generator():
    # the library path: parse, analyze, report
    loaded = _modules_after(f"""
import strictchordal
from strictchordal import CliqueTree, Separators, VulnerabilityReport
from strictchordal.cli import report_document
g = strictchordal.parse_graph(open({str(FIG1)!r}).read())
report_document(g, strictchordal.analyze(g))
""")
    assert {"strictchordal.vulnerability", "strictchordal.cli"} <= loaded
    assert loaded.isdisjoint({"strictchordal.generator", "strictchordal.oracle", "argparse"})
    # python -m strictchordal analyze fig1.gr
    loaded = _modules_after(_cli_code("analyze", str(FIG1)))
    assert {"strictchordal.vulnerability", "argparse"} <= loaded
    assert loaded.isdisjoint({"strictchordal.generator", "strictchordal.oracle",
                              "strictchordal.general", "strictchordal.commands"})


# stderr of the rejected fixtures, as the general path words them
REJECTIONS = {
    "c4.gr": "not chordal: graph is not chordal\nchordless cycle (4 vertices): 2 3 4 1\n",
    "dart.gr": "not strictly chordal: two minimal vertex separators share a vertex\n"
               "witness vertex: 2\noverlapping separators: [2] and [2, 4]\n",
    "gem.gr": "not strictly chordal: two minimal vertex separators share a vertex\n"
              "witness vertex: 5\noverlapping separators: [2, 5] and [3, 5]\n",
}


def test_modules_loaded_on_first_use_load_in_a_fresh_interpreter():
    # in a test session an earlier test has usually imported these modules,
    # so a fault in their first load (a circular import, a name evaluated at
    # import time) shows only in a fresh interpreter
    for name, stderr in REJECTIONS.items():
        loaded, err = _run_fresh(_cli_code("analyze", str(FIXTURES / name), exit_code=3))
        assert err == stderr, name
        assert "strictchordal.general" in loaded and "strictchordal.commands" not in loaded
    loaded = _modules_after(_cli_code("oracle", "--class-fast", str(FIG1)))
    assert {"strictchordal.commands", "strictchordal.general", "strictchordal.oracle"} <= loaded
    loaded = _modules_after(_cli_code("gen", "--seed", "1"))
    assert {"strictchordal.commands", "strictchordal.generator"} <= loaded
    assert "strictchordal.general" not in loaded


def test_the_empty_graph_is_not_connected_before_any_stage(tmp_path):
    # the row-pointer test rules on n = 0 too: no quotient, no general path
    path = tmp_path / "empty.gr"
    path.write_text("p edge 0 0\n")
    loaded, err = _run_fresh(_cli_code("analyze", str(path), exit_code=3))
    assert err == "not connected: clique tree requires a connected graph\n"
    assert "strictchordal.general" not in loaded


# what the analyze path must not import: the record machinery its slotted
# classes replaced, the helpers cli.py promises to import only for the
# other commands, the general path, and pathlib
NOT_ON_ANALYZE_PATH = ("dataclasses", "copy", "argparse", "random", "strictchordal.oracle",
                       "strictchordal.generator", "strictchordal.general",
                       "strictchordal.commands", "pathlib")


def test_analyze_path_imports_no_dataclasses_and_no_other_commands_helpers():
    # numpy imports some of these itself (random, in numpy 2.4); dropping
    # them from sys.modules once numpy is in shows whether the package
    # imports one again
    loaded = _modules_after(f"""
import sys
import numpy
for name in {NOT_ON_ANALYZE_PATH!r}:
    sys.modules.pop(name, None)
import strictchordal.cli as cli
g = cli.parse_graph(open({str(FIG1)!r}).read())
cli.report_document(g, cli.analyze(g))
""")
    assert {"numpy", "strictchordal.cli", "strictchordal.vulnerability"} <= loaded
    assert sorted(loaded.intersection(NOT_ON_ANALYZE_PATH)) == []


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
