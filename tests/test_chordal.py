import random
from itertools import combinations, permutations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    UnionFind,
    brute_is_peo,
    complete_graph,
    corpus_params,
    cycle_graph,
    dart,
    diamond,
    gem,
    is_mcs_order,
    load_fixture,
    neighbours,
    path_graph,
    random_graph,
    rows,
    star_graph,
)
from strictchordal import (
    Graph,
    build_clique_tree,
    connected_components,
    mcs_order,
    minimal_vertex_separators,
    verify_peo,
)
from strictchordal.general import _clique_tree_from_mcs, find_chordless_cycle
from strictchordal.errors import NotChordalError, NotConnectedError
from strictchordal.generator import random_strictly_chordal


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def reference_cliques(g: Graph) -> set[frozenset]:
    return {frozenset(c) for c in nx.find_cliques(to_nx(g))}


# --- mcs_order -------------------------------------------------------------

def test_mcs_path_puts_endpoint_last():
    order = mcs_order(path_graph(3))
    assert order == [2, 1, 0]
    # all six orderings, checked against the raw definition
    g = path_graph(3)
    valid = {p for p in permutations(range(3)) if brute_is_peo(g, p)}
    assert tuple(order) in valid
    for p in permutations(range(3)):
        assert verify_peo(g, list(p)) == brute_is_peo(g, p)


def test_mcs_on_clique_any_order_is_peo():
    g = complete_graph(3)
    assert verify_peo(g, mcs_order(g))
    for p in permutations(range(3)):
        assert brute_is_peo(g, p)
        assert verify_peo(g, list(p))


def test_mcs_order_on_cycle_fails_peo():
    g = cycle_graph(4)
    assert not verify_peo(g, mcs_order(g))


def test_mcs_deterministic_and_permutation():
    g = load_fixture("fig2_g1.gr")
    order = mcs_order(g)
    assert order == mcs_order(g)
    assert sorted(order) == list(range(g.n))
    assert verify_peo(g, order)


def test_verify_peo_rejects_non_permutation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        verify_peo(g, [0, 0, 1])


def test_tree_leaf_pruning_order_is_peo():
    # leaf-pruning order of the spider fixture: leaves first, then branch
    # vertices, center last
    g = load_fixture("fig2_g2.gr")
    order = list(range(5, 13)) + [1, 2, 3, 4, 0]
    assert verify_peo(g, order)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 8))
def test_verify_peo_matches_definition_on_random_orders(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    order = list(range(n))
    rng.shuffle(order)
    assert verify_peo(g, order) == brute_is_peo(g, order)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 9))
def test_mcs_peo_iff_chordal(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.45)
    order = mcs_order(g)
    assert is_mcs_order(g, order)
    assert verify_peo(g, order) == nx.is_chordal(to_nx(g))


# --- build_clique_tree -----------------------------------------------------

def test_clique_tree_single_clique():
    ct = build_clique_tree(complete_graph(4))
    assert ct.n_cliques == 1
    assert sorted(ct.clique(0).tolist()) == [0, 1, 2, 3]
    assert len(ct.edge_parent) == 0


def test_clique_tree_path():
    ct = build_clique_tree(path_graph(3))
    assert sorted(sorted(ct.clique(q).tolist()) for q in range(2)) == [[0, 1], [1, 2]]
    assert len(ct.edge_parent) == 1 and ct.separator_slice(0).tolist() == [1]


def test_clique_tree_fig2_g2_counts():
    g = load_fixture("fig2_g2.gr")
    ct = build_clique_tree(g)
    assert ct.n_cliques == 12
    assert len(ct.edge_parent) == 11
    assert {frozenset(ct.clique(q).tolist()) for q in range(12)} == reference_cliques(g)


def test_clique_tree_rejects_non_chordal():
    with pytest.raises(NotChordalError) as err:
        build_clique_tree(cycle_graph(4))
    cycle = err.value.cycle
    assert cycle is not None and len(cycle) == 4
    _assert_chordless_cycle(cycle_graph(4), cycle)


def test_find_chordless_cycle_closes_a_cycle_or_finds_none():
    # 0 and 2 are non-adjacent neighbours of 1: C4 closes them through 3,
    # the path 0-1-2 has no way round 1
    assert find_chordless_cycle(cycle_graph(4), 1, 0, 2) == [1, 0, 3, 2]
    assert find_chordless_cycle(path_graph(3), 1, 0, 2) is None


def test_clique_tree_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        build_clique_tree(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(NotConnectedError):
        build_clique_tree(Graph(0))


def test_clique_tree_rejects_non_mcs_peo():
    # two triangles sharing vertex 0: the ordering [2,4,3,1,0] is a valid
    # elimination ordering that no search run produces; greedy clique
    # grouping would emit the non-maximal {0,1}
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    bad = [2, 4, 3, 1, 0]
    assert brute_is_peo(g, bad)
    assert not is_mcs_order(g, bad)


def test_is_mcs_order_accepts_alternative_tie_breaks():
    # visiting the other endpoint first is a legal search run on a path
    g = path_graph(3)
    assert is_mcs_order(g, mcs_order(g))
    assert is_mcs_order(g, [0, 1, 2])   # visits 2, 1, 0
    assert is_mcs_order(g, [2, 0, 1])   # visits 1 first, then either end
    assert not is_mcs_order(g, [1, 0, 2])  # middle vertex cannot come last
    ids = np.arange(4)
    ct = _clique_tree_from_mcs(g, [0, 1, 2], ids, ids[:-1])
    assert sorted(sorted(ct.clique(q).tolist()) for q in range(ct.n_cliques)) == [[0, 1], [1, 2]]


def _assert_chordless_cycle(g: Graph, cycle):
    assert len(cycle) >= 4
    adj = [set(nbrs) for nbrs in neighbours(g)]
    k = len(cycle)
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = cycle[j] in adj[cycle[i]]
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            assert adjacent == consecutive, (cycle, i, j)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31), st.integers(4, 9))
def test_chordless_cycle_witness_is_valid(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    order = mcs_order(g)
    if verify_peo(g, order):
        return
    try:
        build_clique_tree(g)
    except NotConnectedError:
        return
    except NotChordalError as err:
        assert err.cycle is not None, "no witness recovered"
        _assert_chordless_cycle(g, err.cycle)
        return
    raise AssertionError("expected NotChordalError")


def _assert_clique_tree_invariants(g: Graph, ct):
    cliques = [frozenset(ct.clique(q).tolist()) for q in range(ct.n_cliques)]
    assert set(cliques) == reference_cliques(g)
    # edges form a tree over the cliques
    assert len(ct.edge_parent) == ct.n_cliques - 1
    edges = list(enumerate(ct.edge_parent.tolist(), 1))
    uf = UnionFind(ct.n_cliques)
    for e, (c, p) in enumerate(edges):
        assert uf.find(c) != uf.find(p), "cycle in clique tree"
        uf.union(c, p)
        sep = frozenset(ct.separator_slice(e).tolist())
        assert sep == cliques[c] & cliques[p]
        assert sep, "empty separator"
    # each clique's separator row is strictly ascending in class ids and
    # spreads to its overlap with its parent clique (the root's row is empty)
    parent = dict(edges)
    for q in range(ct.n_cliques):
        row = ct.sep_indices[ct.sep_ptr[q]:ct.sep_ptr[q + 1]].tolist()
        assert row == sorted(set(row)), row
        spread = {v for x in row for v in ct.members[ct.class_ptr[x]:ct.class_ptr[x + 1]].tolist()}
        assert spread == (cliques[q] & cliques[parent[q]] if q in parent else set())
    # clique-intersection property: every clique on the tree path between two
    # cliques contains their intersection
    adj = [[] for _ in range(ct.n_cliques)]
    for c, p in edges:
        adj[c].append(p)
        adj[p].append(c)
    for a in range(ct.n_cliques):
        parent = {a: None}
        queue = [a]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        for b in range(a + 1, ct.n_cliques):
            common = cliques[a] & cliques[b]
            node = parent[b]
            while node not in (a, None):
                assert common <= cliques[node]
                node = parent[node]


def test_clique_tree_invariants_on_small_fixtures():
    for g in [path_graph(5), star_graph(4), diamond(), gem(), dart(),
              load_fixture("fig2_g1.gr"), load_fixture("fig2_g2.gr"),
              load_fixture("fig1.gr")]:
        if not verify_peo(g, mcs_order(g)):
            continue
        _assert_clique_tree_invariants(g, build_clique_tree(g))


def test_clique_tree_invariants_on_generated_graphs():
    for seed in range(30):
        g = random_strictly_chordal(corpus_params(seed))
        _assert_clique_tree_invariants(g, build_clique_tree(g))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 9))
def test_clique_tree_invariants_on_random_chordal(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    order = mcs_order(g)
    if not verify_peo(g, order):
        return
    try:
        ct = build_clique_tree(g)
    except NotConnectedError:
        return
    _assert_clique_tree_invariants(g, ct)


# --- minimal_vertex_separators ----------------------------------------------

def test_separators_path():
    seps = minimal_vertex_separators(build_clique_tree(path_graph(3)))
    assert len(seps) == 1
    assert seps.row(0) == frozenset({1})
    assert seps.mult[0] == 1


def test_separators_fig2_g2():
    g = load_fixture("fig2_g2.gr")
    seps = minimal_vertex_separators(build_clique_tree(g))
    sets = rows(seps)
    table = {tuple(sorted(sep)): mu for sep, mu in zip(sets, seps.mult.tolist())}
    assert table == {(0,): 3, (1,): 2, (2,): 2, (3,): 2, (4,): 2}
    # multiplicity identity: removing S leaves mu(S) + 1 pieces
    for sep, mu in zip(sets, seps.mult.tolist()):
        assert connected_components(g, sep)[0] == mu + 1
    # boundary cliques: the leaf cliques hanging off each branch vertex
    boundary = {tuple(sorted(sep)): b for sep, b in zip(sets, seps.boundary.tolist())}
    assert boundary == {(0,): 0, (1,): 2, (2,): 2, (3,): 2, (4,): 2}


def test_separators_fig1():
    g = load_fixture("fig1.gr")
    seps = minimal_vertex_separators(build_clique_tree(g))
    assert len(seps) == 2
    white = frozenset(range(10))
    black = frozenset(range(10, 17))
    table = {sep: s for s, sep in enumerate(rows(seps))}
    assert seps.mult[table[white]] == 4
    assert seps.mult[table[black]] == 2
    assert seps.boundary[table[white]] == 4
    assert seps.boundary[table[black]] == 2


def test_separators_sorted_by_smallest_vertex_and_multiplicity_sum():
    for name in ("fig2_g1.gr", "fig2_g2.gr", "fig1.gr"):
        g = load_fixture(name)
        ct = build_clique_tree(g)
        seps = minimal_vertex_separators(ct)
        mins = [min(sep) for sep in rows(seps)]
        assert mins == sorted(mins)
        assert seps.mult.sum() == len(ct.edge_parent)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 12))
def test_separators_match_tree_edge_labels_in_lexicographic_order(seed, n):
    # distinct tree-edge labels, counted, ordered as their sorted contents
    g = random_graph(random.Random(seed), n, 0.6)
    order = mcs_order(g)
    if not verify_peo(g, order):
        return
    try:
        ct = build_clique_tree(g)
    except NotConnectedError:
        return
    labels = {}
    for e in range(len(ct.edge_parent)):
        sep = frozenset(ct.separator_slice(e).tolist())
        labels[sep] = labels.get(sep, 0) + 1
    expected = sorted((sorted(sep), mult) for sep, mult in labels.items())
    seps = minimal_vertex_separators(ct)
    assert list(zip(map(sorted, rows(seps)), seps.mult.tolist())) == expected


def test_separators_adjacent_cliques_contain_separator():
    g = load_fixture("fig2_g1.gr")
    ct = build_clique_tree(g)
    seps = minimal_vertex_separators(ct)
    sets = rows(seps)
    for s, q in zip(seps.pair_sep.tolist(), seps.pair_clique.tolist()):
        assert sets[s] <= set(ct.clique(q).tolist())


def test_separator_minimality_on_fixtures():
    # Property: each reported separator is a minimal separator (removal
    # disconnects, no proper subset removal does), exhaustive for |S| <= 6
    for name in ("fig2_g1.gr", "fig2_g2.gr"):
        g = load_fixture(name)
        for sep in rows(minimal_vertex_separators(build_clique_tree(g))):
            vertices = sorted(sep)
            if len(vertices) > 6:
                continue
            assert connected_components(g, vertices)[0] >= 2
            for k in range(len(vertices)):
                for subset in combinations(vertices, k):
                    assert connected_components(g, subset)[0] == 1, (name, subset)


def test_separator_multiset_is_clique_tree_invariant():
    # relabelling the graph reorders the MCS ordering, giving a different
    # valid PEO; the (separator, multiplicity) multiset must not change
    rng = random.Random(7)
    for seed in range(20):
        g = random_strictly_chordal(corpus_params(seed))
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges()))
        seps = minimal_vertex_separators(build_clique_tree(g))
        original = set(zip(rows(seps), seps.mult.tolist()))
        seps = minimal_vertex_separators(build_clique_tree(relabeled))
        mapped = {(frozenset(perm.index(v) for v in sep), mu)
                  for sep, mu in zip(rows(seps), seps.mult.tolist())}
        assert original == mapped


def test_edge_clique_cover_for_strictly_chordal():
    # consequence of pairwise-disjoint separators: an edge lies in exactly
    # one maximal clique, unless it lies inside a separator S, in which case
    # it lies in exactly the mu(S) + 1 adjacent cliques
    for seed in range(20):
        g = random_strictly_chordal(corpus_params(seed))
        ct = build_clique_tree(g)
        seps = minimal_vertex_separators(ct)
        expected = {}
        for sep, mu in zip(rows(seps), seps.mult.tolist()):
            for pair in combinations(sorted(sep), 2):
                expected[pair] = mu + 1
        counts = {}
        for q in range(ct.n_cliques):
            for pair in combinations(sorted(ct.clique(q).tolist()), 2):
                counts[pair] = counts.get(pair, 0) + 1
        assert set(counts) == set(map(tuple, map(sorted, g.edges())))
        for pair, count in counts.items():
            assert count == expected.get(pair, 1), pair
