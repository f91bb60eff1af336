"""The block decomposition read off one BFS of the twin quotient: it answers
exactly on connected block graphs, its tables match the general path's
(MCS, clique tree, separator rows, overlap check), and it stays small."""

import random
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np

from conftest import (
    bowtie,
    complete_graph,
    cycle_graph,
    dart,
    diamond,
    gem,
    neighbours,
    path_graph,
    random_graph,
    two_k4_sharing_triangle,
)
from test_chordal import _assert_clique_tree_invariants
from test_twins import quotient_graphs
from strictchordal import Graph, analyze, connected_components, mcs_order, verify_peo
from strictchordal import general, vulnerability
from strictchordal.chordal import Separators, block_decomposition, true_twin_quotient
from strictchordal.cli import report_document
from strictchordal.errors import GraphError, NotConnectedError, NotStrictlyChordalError
from strictchordal.general import _clique_tree_from_mcs, minimal_vertex_separators
from strictchordal.generator import GenParams, random_strictly_chordal

SEPARATOR_FIELDS = ("indptr", "indices", "sizes", "mult", "boundary")


def decompose(g: Graph):
    """block_decomposition of g with every vertex a class of its own."""
    ids = np.arange(g.n + 1, dtype=np.int64)
    return block_decomposition(g, ids, ids[:-1])


def is_block_graph(g: Graph) -> bool:
    """Connected, chordal and diamond-free: the common neighbours of the
    ends of every edge are pairwise adjacent."""
    if g.n == 0 or connected_components(g)[0] != 1 or not verify_peo(g, mcs_order(g)):
        return False
    nbrs = [set(row) for row in neighbours(g)]
    return all(b in nbrs[a]
               for u, v in g.edges() for a, b in combinations(nbrs[u] & nbrs[v], 2))


def named_graphs():
    return [
        Graph(0), Graph(4, [(0, 1), (2, 3)]), cycle_graph(4), cycle_graph(7), diamond(),
        gem(), dart(), two_k4_sharing_triangle(),
        # the root's children 1, 2, 3 form one group by least position, but
        # 2 and 3 are not adjacent: the group holds 4 of its 6 entries
        Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
        complete_graph(1), complete_graph(2), complete_graph(6), path_graph(5), bowtie(),
    ]


def test_decomposition_exactly_on_block_graphs():
    # the BFS and the two group counts prove a block graph: checked against
    # the diamond-free chordal reference on named graphs, random graphs and
    # block graphs with one edge added or taken away
    rng = random.Random(41)
    graphs = named_graphs()
    graphs += [random_graph(rng, rng.randint(1, 9), rng.random()) for _ in range(1500)]
    for seed in range(300):
        g = random_strictly_chordal(GenParams(seed=seed, block_count=1 + seed % 6,
                                              max_block_size=2 + seed % 4, max_twins=0))
        edges = set(g.edges())
        u, v = rng.sample(range(g.n), 2)
        edges ^= {(min(u, v), max(u, v))}
        graphs += [g, Graph(g.n, sorted(edges))]
    accepted = 0
    for g in graphs:
        try:
            found = decompose(g)
        except NotConnectedError:  # a search that misses a vertex proves it
            assert connected_components(g)[0] != 1, sorted(g.edges())
            continue
        assert (found is not None) == is_block_graph(g), sorted(g.edges())
        if found is not None:
            ct, seps = found
            _assert_clique_tree_invariants(g, ct)
            assert seps.n_cliques == ct.n_cliques
            accepted += 1
    assert accepted > 400


def differential_graphs():
    graphs = [random_strictly_chordal(GenParams(seed=seed, block_count=1 + seed % 14,
                                                max_block_size=2 + seed % 7,
                                                max_twins=seed % 5))
              for seed in range(2000)]
    return graphs + quotient_graphs()


def _outcome(g: Graph):
    try:
        return analyze(g)
    except GraphError as exc:
        return exc


def _clique_ids(ct):
    return [tuple(sorted(ct.clique(q).tolist())) for q in range(ct.n_cliques)]


def test_block_path_matches_the_general_path(monkeypatch):
    graphs = differential_graphs()
    fast = [_outcome(g) for g in graphs]
    monkeypatch.setattr(vulnerability, "block_decomposition", lambda *args: None)
    accepted = 0
    for g, mine in zip(graphs, fast):
        ref = _outcome(g)
        if isinstance(ref, GraphError):
            assert type(mine) is type(ref)
            assert vars(mine) == vars(ref) and str(mine) == str(ref)
            continue
        assert "blocks" in mine.timings and "mcs" in ref.timings
        assert mine == ref
        doc, ref_doc = report_document(g, mine), report_document(g, ref)
        del doc["timings_ms"], ref_doc["timings_ms"]
        assert doc == ref_doc
        seps, ref_seps = mine.separators, ref.separators
        for name in SEPARATOR_FIELDS:
            assert np.array_equal(getattr(seps, name), getattr(ref_seps, name)), name
        # the general separator code on the block path's own tree gives its
        # table exactly, incidences included: the clique numbering is the same
        again = minimal_vertex_separators(mine.clique_tree)
        for name in Separators.__slots__:
            assert np.array_equal(getattr(again, name), getattr(seps, name)), name
        # cliques up to numbering: each named by its vertices
        cliques, ref_cliques = _clique_ids(mine.clique_tree), _clique_ids(ref.clique_tree)
        assert seps.n_cliques == ref_seps.n_cliques == len(set(cliques))
        assert sorted(cliques) == sorted(ref_cliques)
        assert (dict(zip(cliques, seps.clique_sizes.tolist()))
                == dict(zip(ref_cliques, ref_seps.clique_sizes.tolist())))
        pairs = sorted(zip(seps.pair_sep.tolist(), (cliques[q] for q in seps.pair_clique)))
        assert pairs == sorted(zip(ref_seps.pair_sep.tolist(),
                                   (ref_cliques[q] for q in ref_seps.pair_clique)))
        # the incidences are sorted by separator and then clique
        keys = seps.pair_sep * seps.n_cliques + seps.pair_clique
        assert (keys[1:] > keys[:-1]).all()
        accepted += 1
    assert accepted >= 2000


def planted_defects():
    """Generator graphs with one planted defect each, as ``(kind, graph)``,
    every vertex relabelled at random: a disjoint union with a second
    generator graph or with a chordless cycle, isolated vertices, a
    chordless cycle beside an edge, and two overlapping separators."""
    rng = random.Random(43)
    out = []
    for seed in range(250):
        g = random_strictly_chordal(GenParams(seed=seed, block_count=1 + seed % 8,
                                              max_block_size=2 + seed % 5, max_twins=seed % 3))
        n, edges = g.n, list(g.edges())
        kind = ("union", "union_cycle", "isolated", "cycle", "overlap")[seed % 5]
        if kind == "union":
            other = random_strictly_chordal(GenParams(seed=seed + 1000, block_count=1 + seed % 4,
                                                      max_twins=1))
            edges += [(u + n, v + n) for u, v in other.edges()]
            n += other.n
        elif kind == "union_cycle":
            k = rng.randint(4, 7)
            edges += [(n + i, n + (i + 1) % k) for i in range(k)]
            n += k
        elif kind == "isolated":
            n += rng.randint(1, 3)
        elif kind == "cycle":  # a - x1 - ... - xk - b beside the edge a-b
            a, b = rng.choice(edges)
            path = [a, *range(n, n + rng.randint(2, 4)), b]
            edges += list(zip(path, path[1:]))
            n = max(path[1:-1]) + 1
        else:  # cliques {u,x,y}, {x,y,z}, {x,w} at u: separators {x,y} and {x}
            u = rng.randrange(n)
            x, y, z, w = range(n, n + 4)
            edges += [(u, x), (u, y), (x, y), (x, z), (y, z), (x, w)]
            n += 4
        label = list(range(n))
        rng.shuffle(label)
        out.append((kind, Graph(n, [(label[u], label[v]) for u, v in edges])))
    return out


def _general_outcome(g: Graph):
    """The rejection of the general stages alone, with no degree test and
    no block search: the quotient, MCS, the clique tree, the separator table
    and the overlap check."""
    h, _, class_ptr, members = true_twin_quotient(g)
    try:
        ct = _clique_tree_from_mcs(h, mcs_order(h), class_ptr, members)
    except GraphError as exc:
        return exc
    overlap = general.separator_overlap(minimal_vertex_separators(ct))
    assert overlap is not None
    v, first, second = overlap
    return NotStrictlyChordalError("two minimal vertex separators share a vertex", vertex=v,
                                   separators=(first, second))


def test_early_rejections_match_the_general_path(monkeypatch):
    # a vertex of degree 0, and a block search that misses a class, reject
    # before MCS runs; the exception, its message and its witness are the
    # general path's, with the block search on, off, and with neither early test
    cases = planted_defects()
    searches = []
    mcs = general.mcs_order
    monkeypatch.setattr(general, "mcs_order", lambda h: searches.append(h) or mcs(h))
    mine = []
    for kind, g in cases:
        searches.clear()
        mine.append((_outcome(g), len(searches)))
    monkeypatch.setattr(vulnerability, "block_decomposition", lambda *args: None)
    seen = Counter()
    for (kind, g), (outcome, ran_mcs) in zip(cases, mine):
        for ref in (_outcome(g), _general_outcome(g)):
            assert isinstance(ref, GraphError) and type(outcome) is type(ref), kind
            assert str(outcome) == str(ref) and vars(outcome) == vars(ref), kind
        if kind in ("union", "isolated"):
            assert isinstance(outcome, NotConnectedError) and not ran_mcs, kind
        seen[kind, type(outcome).__name__] += 1
    assert seen == {("union", "NotConnectedError"): 50, ("union_cycle", "NotConnectedError"): 50,
                    ("isolated", "NotConnectedError"): 50, ("cycle", "NotChordalError"): 50,
                    ("overlap", "NotStrictlyChordalError"): 50}


def test_block_clique_tree_is_rooted_at_the_first_class():
    for seed in range(40):
        g = random_strictly_chordal(GenParams(seed=seed, block_count=1 + seed % 9,
                                              max_block_size=2 + seed % 5, max_twins=seed % 3))
        ct = analyze(g).clique_tree
        rows = np.diff(ct.sep_ptr)
        # clique 0 holds class 0 first and has an empty row; every other row
        # is one class
        assert ct.visit[0] == 0 and rows[0] == 0 and (rows[1:] == 1).all()
        assert ct.edge_child.tolist() == list(range(1, ct.n_cliques))
        _assert_clique_tree_invariants(g, ct)


def test_block_decomposition_memory_stays_within_three_times_the_csr():
    # the search reads the CSR through memoryviews.  Its parent and queue
    # lists, the sibling entries and the returned tables peak at 2.5 times
    # the quotient's CSR at n = 1e5; a search on CSR lists alone took 5.4
    g = random_strictly_chordal(GenParams(seed=7, target_n=100_000, max_block_size=6,
                                          max_twins=1))
    h, _, class_ptr, members = true_twin_quotient(g)
    csr_bytes = sum(a.nbytes for a in h.csr())
    tracemalloc.start()
    try:
        found = block_decomposition(h, class_ptr, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is not None and g.n > 90_000
    assert peak <= 3 * csr_bytes, peak / csr_bytes
