import pytest

from conftest import (
    corpus_params,
    dart,
    diamond,
    double_star,
    gem,
    load_fixture,
    path_graph,
    star_graph,
)
from strictchordal import (
    border_mvs_exists,
    build_cb,
    build_clique_tree,
    minimal_vertex_separators,
)
from strictchordal.generator import random_strictly_chordal
from strictchordal.recognition import MVS, TRUE_CLIQUE, separator_overlap


def pipeline(g):
    ct = build_clique_tree(g)
    return ct, minimal_vertex_separators(ct)


def is_strictly_chordal(seps):
    return separator_overlap(seps) is None


def degree(cb, v):
    return cb.indptr[v + 1] - cb.indptr[v]


def node_count(cb):
    return len(cb.indptr) - 1


def test_single_separator_is_strictly_chordal():
    _, seps = pipeline(path_graph(3))
    assert is_strictly_chordal(seps)


def test_gem_is_chordal_but_not_strictly():
    _, seps = pipeline(gem())
    assert not is_strictly_chordal(seps)
    v, first, second = separator_overlap(seps)
    # the dominating vertex sits in both separators of the gem
    assert v == 4
    assert first != second
    assert v in first and v in second


def test_dart_is_chordal_but_not_strictly():
    _, seps = pipeline(dart())
    assert not is_strictly_chordal(seps)


def test_fig2_g1_separators_are_disjoint():
    g = load_fixture("fig2_g1.gr")
    _, seps = pipeline(g)
    assert is_strictly_chordal(seps)
    assert {frozenset(s.vertices) for s in seps} == {
        frozenset({0, 9}), frozenset({2}), frozenset({3, 4}), frozenset({6, 7, 8})
    }


# --- build_cb ---------------------------------------------------------------

def test_cb_path():
    cb = build_cb(*pipeline(path_graph(3)))
    assert node_count(cb) == 3
    assert cb.n_cliques == 2
    assert sum(degree(cb, v) for v in range(node_count(cb))) == 2 * 2


def test_cb_star():
    cb = build_cb(*pipeline(star_graph(3)))
    assert node_count(cb) == 4  # 3 edge-cliques + 1 separator
    assert degree(cb, cb.n_cliques) == 3


def test_cb_fig2_g2():
    cb = build_cb(*pipeline(load_fixture("fig2_g2.gr")))
    assert node_count(cb) == 17  # 12 cliques + 5 separators
    assert sum(degree(cb, v) for v in range(node_count(cb))) == 2 * 16


def test_cb_labels_initialized():
    cb = build_cb(*pipeline(double_star()))
    q = cb.n_cliques
    assert all(status == TRUE_CLIQUE for status in cb.status[:q])
    assert all(status == MVS for status in cb.status[q:])
    assert all(e == 0 for e in cb.entry)
    assert all(p == -1 for p in cb.parent)
    for i, info in enumerate(cb.separators):
        node = q + i
        assert cb.card[node] == len(info.vertices)
        assert cb.mu[node] == info.multiplicity


def _assert_cb_invariants(g):
    ct, seps = pipeline(g)
    if not is_strictly_chordal(seps):
        pytest.fail("corpus graph not strictly chordal")
    cb = build_cb(ct, seps)
    q = cb.n_cliques
    n_edges = sum(degree(cb, v) for v in range(node_count(cb))) // 2
    assert n_edges == node_count(cb) - 1
    for i, info in enumerate(cb.separators):
        node = q + i
        # degree of a separator node is its multiplicity + 1
        assert degree(cb, node) == info.multiplicity + 1
        # every neighbour is a clique node containing the separator
        for c in cb.neighbors[cb.indptr[node]:cb.indptr[node + 1]]:
            assert c < q
            assert info.vertices <= ct.cliques[c]
    # edges alternate: clique nodes only see separator nodes
    for c in range(q):
        for w in cb.neighbors[cb.indptr[c]:cb.indptr[c + 1]]:
            assert w >= q
        # neighbour lists ascend (deterministic child order)
        nbrs = cb.neighbors[cb.indptr[c]:cb.indptr[c + 1]]
        assert nbrs == sorted(nbrs)
    # separator nodes are ordered by smallest contained vertex
    mins = [min(info.vertices) for info in cb.separators]
    assert mins == sorted(mins)
    # leaf clique nodes contain exactly one separator and are the boundary
    # cliques counted during separator extraction
    leaf_counts = {i: 0 for i in range(len(seps))}
    for c in range(q):
        if degree(cb, c) == 1:
            sep_node = cb.neighbors[cb.indptr[c]]
            leaf_counts[sep_node - q] += 1
            inside = [i for i in range(len(seps)) if seps[i].vertices <= ct.cliques[c]]
            assert len(inside) == 1
    for i, info in enumerate(seps):
        assert info.boundary_count == leaf_counts[i]
    if len(seps) > 1:
        assert border_mvs_exists(cb)


def test_cb_invariants_on_fixtures_and_corpus(corpus):
    for g in corpus:
        _assert_cb_invariants(g)


def test_border_mvs_on_fig2_g2():
    ct, seps = pipeline(load_fixture("fig2_g2.gr"))
    cb = build_cb(ct, seps)
    assert border_mvs_exists(cb)
    # each branch separator has both its outer cliques as leaves
    table = {min(s.vertices): s for s in seps}
    assert table[1].boundary_count == 2 == table[1].multiplicity


def test_border_mvs_on_double_star():
    cb = build_cb(*pipeline(double_star()))
    assert border_mvs_exists(cb)


def test_border_mvs_on_diamond_single_separator():
    # the guarantee needs at least two separators: the diamond's sole
    # separator has two boundary cliques but multiplicity one
    cb = build_cb(*pipeline(diamond()))
    assert not border_mvs_exists(cb)


def test_vertex_to_separator_assignment_is_a_function(corpus):
    for g in corpus:
        _, seps = pipeline(g)
        owner = {}
        for info in seps:
            for v in info.vertices:
                assert owner.setdefault(v, info.vertices) == info.vertices
