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
    path_graph,
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
from strictchordal.chordal import true_twin_quotient
from strictchordal.cli import main, report_document
from strictchordal.errors import (
    GraphError,
    NotChordalError,
    NotConnectedError,
    NotStrictlyChordalError,
)
from strictchordal.general import _clique_tree_from_mcs
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


def _assert_quotient_is_exact(g: Graph):
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


def test_quotient_classes_are_exact():
    for g in quotient_graphs():
        _assert_quotient_is_exact(g)


@pytest.fixture(scope="module")
def clique_chain():
    """130 cliques of 30 vertices in a chain, each sharing one vertex with
    the next, and 250 true twins planted at random: n = 4,021, the shape of
    perfbench's dense_chain workload."""
    edges, start = [], 0
    for _ in range(130):
        edges += combinations(range(start, start + 30), 2)
        start += 29
    return plant_twins(Graph(start + 1, edges), random.Random(31), 250)


def test_quotient_classes_are_exact_on_a_clique_chain(clique_chain):
    _assert_quotient_is_exact(clique_chain)
    assert len(true_twin_quotient(clique_chain)[1]) < clique_chain.n // 5


def test_quotient_memory_stays_within_one_and_a_half_times_the_csr(clique_chain):
    # the class pairs are sorted as uint32 and the fingerprints summed row
    # by row: 1.18 times the CSR here, against 2.13 with int64 pairs and a
    # prefix sum over the entries.  The bound is that peak plus 25%
    csr_bytes = sum(a.nbytes for a in clique_chain.csr())
    tracemalloc.start()
    try:
        true_twin_quotient(clique_chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.48 * csr_bytes, peak / csr_bytes


def test_quotient_memory_stays_within_four_times_the_csr(clique_chain):
    # counting entries per class pair needs about twice the CSR; closed
    # rows with their slot maps would need over six times
    csr_bytes = sum(a.nbytes for a in clique_chain.csr())
    tracemalloc.start()
    try:
        true_twin_quotient(clique_chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * csr_bytes, peak / csr_bytes


@pytest.mark.parametrize("classes", [2**16, 2**16 + 1])
def test_quotient_is_exact_on_both_sides_of_the_key_width_switch(classes):
    # a path with one planted true twin has one class per path vertex: its
    # class pairs sort as uint32 (and its class ids as uint16) up to 65,536
    # classes, as int64 past them
    g = plant_twins(path_graph(classes), random.Random(classes), 1)
    assert g.n == classes + 1
    assert len(true_twin_quotient(g)[1]) == classes
    _assert_quotient_is_exact(g)


@pytest.mark.parametrize("g", [
    Graph(0),
    Graph(1),
    Graph(3),
    # isolated vertices first, in the middle and last, beside twin classes
    Graph(6, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]),
    Graph(6, [(0, 1), (0, 2), (1, 2), (4, 5)]),
    Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
    Graph(7, [(1, 2), (1, 3), (2, 3), (4, 5)]),
], ids=["n0", "n1", "edgeless", "isolated_first", "isolated_middle", "isolated_last",
        "isolated_at_both_ends"])
def test_fingerprints_skip_empty_rows(g):
    # a row sum by reduceat must leave an empty row at 0, wherever it lies;
    # quotient_graphs() holds more such rows, among random graphs
    _assert_quotient_is_exact(g)


def _stable_least_of_groups(fp):
    """Each vertex's group's least vertex as the first of its group in a
    stable sort by fingerprint, ties being by id."""
    by_fp = np.argsort(fp, kind="stable")
    first = np.ones(len(fp), dtype=bool)
    first[1:] = fp[by_fp[1:]] != fp[by_fp[:-1]]
    least = np.empty(len(fp), dtype=np.int64)
    least[by_fp] = by_fp[np.maximum.accumulate(np.where(first, np.arange(len(fp)), 0))]
    return least


@pytest.mark.parametrize("keys", ["mixed", "parity", "zero"])
def test_quotient_is_the_stable_sorts_quotient(keys, monkeypatch):
    # parity keys make many fingerprints tie, zero keys make all of them tie
    if keys == "parity":
        monkeypatch.setattr(chordal, "_mix_keys", lambda ids: (ids % 2).astype(np.uint64))
    elif keys == "zero":
        monkeypatch.setattr(chordal, "_mix_keys", lambda ids: np.zeros(len(ids), dtype=np.uint64))
    rng = random.Random(8)
    graphs = quotient_graphs()
    graphs += [plant_twins(random_graph(rng, 60, 0.1), rng, 40) for _ in range(5)]
    for g in graphs:
        h, *arrays = true_twin_quotient(g)
        with monkeypatch.context() as patch:
            patch.setattr(chordal, "_least_of_groups", _stable_least_of_groups)
            h_ref, *ref = true_twin_quotient(g)
        assert all(np.array_equal(x, y) for x, y in zip(arrays, ref))
        assert all(np.array_equal(x, y) for x, y in zip(h.csr(), h_ref.csr()))
        assert (h.n, h.id_base) == (h_ref.n, h_ref.id_base)


def test_quotient_of_false_twins_only_is_the_graph():
    # equal open neighbourhoods without the edge between them are no true twins
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    h, reps, _, _ = true_twin_quotient(g)
    assert h is g and reps.tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("g", [
    # equal open neighbourhoods, not adjacent: the class holds 8 of the 12
    # entries a 4-clique needs
    Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
    # leaves of a path: a class of two with no entry of its own
    Graph(3, [(0, 2), (1, 2)]),
    Graph(3),
    # 0 and 1 are true twins and 2 has their degree: {0, 1, 2} is a clique,
    # but 3 sees two of its three vertices and 4 one
    Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4)]),
    path_graph(6),
], ids=["k22", "path_leaves", "edgeless", "cross_pair", "twin_free"])
def test_a_failed_count_leaves_every_vertex_alone(g, monkeypatch):
    # with every key zero, each vertex of the degree of vertex 0 joins it;
    # one of the two counts must refuse that class
    expected = outcome(g)
    monkeypatch.setattr(chordal, "_mix_keys", lambda ids: np.zeros(len(ids), dtype=np.uint64))
    h, reps, class_ptr, members = true_twin_quotient(g)
    assert h is g
    assert reps.tolist() == members.tolist() == list(range(g.n))
    assert class_ptr.tolist() == list(range(g.n + 1))
    assert outcome(g) == expected


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
