"""The true-twin quotient: exact classes, the induced graph on the
representatives, the clique tree that keeps the classes, and analyze's
answers and witnesses through it (including when every fingerprint
collides)."""

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    complete_graph,
    corpus_params,
    cycle_graph,
    load_fixture,
    neighbours,
    random_graph,
    rows,
)
from test_chordal import _assert_chordless_cycle, _assert_clique_tree_invariants
from strictchordal import (
    Graph,
    analyze,
    build_clique_tree,
    chordal,
    connected_components,
    mcs_order,
    minimal_vertex_separators,
    verify_peo,
)
from strictchordal.chordal import _clique_tree_from_mcs, true_twin_quotient
from strictchordal.cli import main, report_document
from strictchordal.errors import (
    GraphError,
    NotChordalError,
    NotConnectedError,
    NotStrictlyChordalError,
)
from strictchordal.generator import GenParams, random_strictly_chordal
from strictchordal.vulnerability import CASE_COMPLETE

FIXTURES = ("c4.gr", "dart.gr", "fig1.gr", "fig2_g1.gr", "fig2_g2.gr", "gem.gr", "k7.gr",
            "path3_plain.txt")


def plant_twins(g: Graph, rng: random.Random, count: int, true: bool = True) -> Graph:
    """g with up to ``count`` new vertices, each a true (or, where the
    original has a neighbour, false) twin of a random earlier vertex, and
    all vertices then relabelled at random."""
    edges = list(g.edges())
    adj = [set(nbrs) for nbrs in neighbours(g)]
    n = g.n
    for _ in range(count):
        v = rng.randrange(n)
        if not true and not adj[v]:
            continue
        nbrs = adj[v] | {v} if true else set(adj[v])
        adj.append(set(nbrs))
        for u in nbrs:
            adj[u].add(n)
            edges.append((u, n))
        n += 1
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def reference_classes(g: Graph) -> list[list[int]]:
    """Classes of equal closed neighbourhoods, each ascending, by least vertex."""
    groups = {}
    for v, nbrs in enumerate(neighbours(g)):
        groups.setdefault(frozenset(nbrs) | {v}, []).append(v)
    return sorted(groups.values())


def quotient_graphs():
    rng = random.Random(5)
    graphs = [random_strictly_chordal(corpus_params(seed)) for seed in range(40)]
    for _ in range(40):
        base = random_graph(rng, rng.randint(1, 10), rng.random())
        graphs.append(plant_twins(base, rng, rng.randint(0, 8)))
        graphs.append(plant_twins(base, rng, rng.randint(1, 8), true=False))
    return graphs


def classes_of(class_ptr, members):
    return [members[a:b].tolist() for a, b in zip(class_ptr, class_ptr[1:])]


def test_quotient_classes_are_exact():
    for g in quotient_graphs():
        h, reps, class_ptr, members = true_twin_quotient(g)
        expected = reference_classes(g)
        assert classes_of(class_ptr, members) == expected
        assert reps.tolist() == [c[0] for c in expected]
        # h is g induced on the representatives, renumbered in order
        qid = {v: x for x, v in enumerate(reps.tolist())}
        induced = Graph(len(reps), [(qid[u], qid[v]) for u, v in g.edges()
                                    if u in qid and v in qid])
        assert (h.n, h.m) == (induced.n, induced.m)
        for mine, ref in zip(h.csr(), induced.csr()):
            assert mine.dtype == np.int64 and np.array_equal(mine, ref)
        assert h.id_base == g.id_base
        if len(reps) == g.n:
            assert h is g


def test_quotient_of_false_twins_only_is_the_graph():
    # equal open neighbourhoods without the edge between them are no true twins
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    h, reps, _, _ = true_twin_quotient(g)
    assert h is g and reps.tolist() == [0, 1, 2, 3]


def test_class_clique_tree_is_a_clique_tree_of_the_graph():
    for g in quotient_graphs():
        if not verify_peo(g, mcs_order(g)):
            continue
        h, _, class_ptr, members = true_twin_quotient(g)
        try:
            ct = _clique_tree_from_mcs(h, mcs_order(h), class_ptr, members)
        except NotConnectedError:
            continue
        # cliques are g's maximal cliques, each separator_slice(e) is the
        # intersection of its edge's cliques, and the
        # running intersection property holds
        _assert_clique_tree_invariants(g, ct)
        # a clique's vertices are its own classes' and its separator row's
        class_sizes = np.diff(class_ptr)
        for q in range(ct.n_cliques):
            own = ct.visit[ct.clique_ptr[q]:ct.clique_ptr[q + 1]]
            row = ct.sep_indices[ct.sep_ptr[q]:ct.sep_ptr[q + 1]]
            assert class_sizes[own].sum() + class_sizes[row].sum() == len(ct.clique(q))
        ref = minimal_vertex_separators(build_clique_tree(g))
        seps = minimal_vertex_separators(ct)
        assert seps.clique_sizes.tolist() == [len(ct.clique(q)) for q in range(ct.n_cliques)]
        assert rows(seps) == rows(ref)
        assert seps.mult.tolist() == ref.mult.tolist()


def _assert_minimal_separator(g: Graph, sep):
    """Removing sep leaves at least two full components: components in
    which every vertex of sep has a neighbour."""
    count, labels = connected_components(g, sep)
    nbrs = neighbours(g)
    full = [c for c in range(count)
            if all(any(labels[w] == c for w in nbrs[v]) for v in sep)]
    assert len(full) >= 2, sorted(sep)


def test_overlap_witnesses_through_twins_are_valid():
    # chordal G(n, p) graphs with planted true twins: every rejection names
    # a vertex lying in two different minimal separators of g
    rng = random.Random(23)
    analysed = rejected = 0
    while analysed < 1000:
        base = random_graph(rng, rng.randint(4, 9), rng.uniform(0.3, 0.8))
        if not verify_peo(base, mcs_order(base)):
            continue
        g = plant_twins(base, rng, rng.randint(1, 14 - base.n))
        try:
            analyze(g)
        except NotConnectedError:
            continue
        except NotStrictlyChordalError as err:
            first, second = err.separators
            assert first != second and err.vertex in first & second
            _assert_minimal_separator(g, first)
            _assert_minimal_separator(g, second)
            rejected += 1
        analysed += 1
    assert rejected >= 100


def _wide_separator_edges():
    # two 501-vertex cliques sharing 500 vertices, and a path hanging off one
    # of them: 20,002 tree edges, one separator of 500 vertices
    shared = list(combinations(range(500), 2))
    edges = shared + [(v, 500) for v in range(500)] + [(v, 501) for v in range(500)]
    return edges + [(v, v + 1) for v in range(501, 20_502)]


def test_separator_memory_stays_small_beside_one_wide_separator():
    # the 500 shared vertices are twins.  Rows padded to the widest
    # separator of g would take about 170 MB; on the classes the widest row
    # is one class
    g = Graph(20_503, _wide_separator_edges())
    tracemalloc.start()
    try:
        report = analyze(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.separators.sizes.max() == 500
    assert len(report.clique_tree.edge_child) == 20_002
    assert peak < 40 * 2**20, peak / 2**20


def test_separator_memory_stays_small_beside_one_wide_row_of_classes():
    # a pendant vertex on each shared vertex leaves no twins among them, so
    # the 500-vertex separator is a row of 500 classes among 20,502 rows of
    # one class.  Rows padded to the widest would take about 170 MB
    edges = _wide_separator_edges() + [(v, 20_503 + v) for v in range(500)]
    g = Graph(21_003, edges)
    tracemalloc.start()
    try:
        with pytest.raises(NotStrictlyChordalError) as info:
            analyze(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.vertex == 0
    assert sorted(map(len, info.value.separators)) == [1, 500]
    assert peak < 40 * 2**20, peak / 2**20


def outcome(g: Graph):
    """report_document without timings, or the kind of the rejection."""
    try:
        report = analyze(g)
    except GraphError as exc:
        return type(exc).__name__
    doc = report_document(g, report)
    del doc["timings_ms"]
    return doc


def test_fingerprint_collisions_cost_compression_not_answers(monkeypatch):
    graphs = [load_fixture(name) for name in FIXTURES]
    graphs += [random_strictly_chordal(GenParams(seed=seed, block_count=1 + seed % 12,
                                                 max_block_size=2 + seed % 4,
                                                 max_twins=seed % 4))
               for seed in range(300)]
    expected = [outcome(g) for g in graphs]
    # every vertex gets one fingerprint: only the exact check separates them
    monkeypatch.setattr(chordal, "_mix_keys", lambda ids: np.zeros(len(ids), dtype=np.uint64))
    assert [outcome(g) for g in graphs] == expected
    for g in graphs[:60]:
        _, _, class_ptr, members = true_twin_quotient(g)
        nbrs = neighbours(g)
        for cls in classes_of(class_ptr, members):
            closed = {frozenset(nbrs[v]) | {v} for v in cls}
            assert len(closed) == 1, cls


def test_chordless_cycles_through_twins_are_in_graph_ids():
    rng = random.Random(11)
    found = 0
    bases = [cycle_graph(k) for k in (4, 5, 6, 7)]
    bases += [random_graph(rng, rng.randint(4, 10), 0.4) for _ in range(60)]
    for base in bases:
        g = plant_twins(base, rng, rng.randint(1, 12))
        try:
            analyze(g)
        except NotChordalError as err:
            _assert_chordless_cycle(g, err.cycle)
            found += 1
        except GraphError:
            pass
    assert found >= 20


def test_cli_prints_cycles_through_twins_in_file_numbering(tmp_path, capsys):
    # C5 on 0, 2, 4, 5, 6 with twins 1 (of 0) and 3 (of 2): the quotient
    # renumbers 2, 4, 5, 6 as 1, 2, 3, 4
    cycle5 = [0, 2, 4, 5, 6]
    edges = [(cycle5[i], cycle5[(i + 1) % 5]) for i in range(5)]
    edges += [(0, 1), (1, 2), (1, 6), (0, 3), (1, 3), (2, 3), (3, 4)]
    g = Graph(7, edges)
    path = tmp_path / "c5_twins.gr"
    path.write_text("p edge 7 0\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in g.edges()))
    assert main(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    line = next(row for row in err.splitlines() if row.startswith("chordless cycle"))
    cycle = [int(tok) - 1 for tok in line.split(":")[1].split()]
    _assert_chordless_cycle(g, cycle)


@pytest.mark.parametrize("g", [
    Graph(0),
    Graph(4, [(0, 1), (2, 3)]),                      # two disjoint K2s
    Graph(4, [(0, 1), (1, 2)]),                      # an isolated vertex
    Graph(5, list(combinations(range(3), 2)) + [(3, 4)]),  # class {3, 4} alone
], ids=["empty", "two_k2", "isolated_vertex", "isolated_class"])
def test_disconnected_inputs_through_the_quotient(g):
    with pytest.raises(NotConnectedError):
        analyze(g)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_complete_graphs_collapse_to_one_vertex(n):
    g = complete_graph(n)
    h, reps, class_ptr, members = true_twin_quotient(g)
    assert (h.n, reps.tolist(), members.tolist()) == (1, [0], list(range(n)))
    report = analyze(g)
    assert (report.case, report.clique_count) == (CASE_COMPLETE, 1)
