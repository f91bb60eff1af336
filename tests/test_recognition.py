import numpy as np
import pytest

from conftest import (
    UnionFind,
    border_mvs_exists,
    dart,
    diamond,
    double_star,
    gem,
    load_fixture,
    path_graph,
    star_graph,
)
from strictchordal import (
    build_clique_tree,
    minimal_vertex_separators,
)
from strictchordal.recognition import separator_overlap


def pipeline(g):
    ct = build_clique_tree(g)
    return ct, minimal_vertex_separators(ct)


def is_strictly_chordal(seps):
    return separator_overlap(seps) is None


def degrees(seps):
    """Incidence-tree degree of each node: the cliques, then the separators."""
    return np.concatenate((np.bincount(seps.pair_clique, minlength=seps.n_cliques),
                           np.bincount(seps.pair_sep, minlength=len(seps))))


def node_count(seps):
    return seps.n_cliques + len(seps)


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


# --- incidence tree ------------------------------------------------------------

def test_cb_path():
    _, seps = pipeline(path_graph(3))
    assert node_count(seps) == 3
    assert seps.n_cliques == 2
    assert degrees(seps).sum() == 2 * 2


def test_cb_star():
    _, seps = pipeline(star_graph(3))
    assert node_count(seps) == 4  # 3 edge-cliques + 1 separator
    assert degrees(seps)[seps.n_cliques] == 3


def test_cb_fig2_g2():
    _, seps = pipeline(load_fixture("fig2_g2.gr"))
    assert node_count(seps) == 17  # 12 cliques + 5 separators
    assert degrees(seps).sum() == 2 * 16


def test_cb_labels_initialized():
    # the sizes and multiplicities the type-B pass starts from
    ct, seps = pipeline(double_star())
    assert seps.clique_sizes.tolist() == [len(ct.clique(q)) for q in range(ct.n_cliques)]
    for i, info in enumerate(seps):
        assert seps.sizes[i] == len(info.vertices)
        assert seps.mult[i] == info.multiplicity


def _assert_cb_invariants(g):
    ct, seps = pipeline(g)
    if not is_strictly_chordal(seps):
        pytest.fail("corpus graph not strictly chordal")
    q = seps.n_cliques
    deg = degrees(seps)
    # a tree: one edge fewer than nodes, and the edges join every node
    assert len(seps.pair_sep) == node_count(seps) - 1
    uf = UnionFind(node_count(seps))
    for s, c in zip(seps.pair_sep.tolist(), seps.pair_clique.tolist()):
        uf.union(c, q + s)
    assert len({uf.find(v) for v in range(node_count(seps))}) == 1
    for i, info in enumerate(seps):
        # degree of a separator node is its multiplicity + 1
        assert deg[q + i] == info.multiplicity + 1
        # every neighbour is a clique node containing the separator
        for c in info.adjacent_cliques:
            assert c < q
            assert info.vertices <= ct.cliques[c]
    # the pairs run by separator and then clique, without repeats
    pairs = list(zip(seps.pair_sep.tolist(), seps.pair_clique.tolist()))
    assert pairs == sorted(set(pairs))
    # separator nodes are ordered by smallest contained vertex
    mins = [min(info.vertices) for info in seps]
    assert mins == sorted(mins)
    # leaf clique nodes contain exactly one separator and are the boundary
    # cliques counted during separator extraction
    leaf_counts = {i: 0 for i in range(len(seps))}
    for s, c in pairs:
        if deg[c] == 1:
            leaf_counts[s] += 1
            inside = [i for i in range(len(seps)) if seps[i].vertices <= ct.cliques[c]]
            assert inside == [s]
    for i, info in enumerate(seps):
        assert info.boundary_count == leaf_counts[i]
    if len(seps) > 1:
        assert border_mvs_exists(seps)


def test_cb_invariants_on_fixtures_and_corpus(corpus):
    for g in corpus:
        _assert_cb_invariants(g)


def test_border_mvs_on_fig2_g2():
    _, seps = pipeline(load_fixture("fig2_g2.gr"))
    assert border_mvs_exists(seps)
    # each branch separator has both its outer cliques as leaves
    table = {min(s.vertices): s for s in seps}
    assert table[1].boundary_count == 2 == table[1].multiplicity


def test_border_mvs_on_double_star():
    _, seps = pipeline(double_star())
    assert border_mvs_exists(seps)


def test_border_mvs_on_diamond_single_separator():
    # the guarantee needs at least two separators: the diamond's sole
    # separator has two boundary cliques but multiplicity one
    _, seps = pipeline(diamond())
    assert not border_mvs_exists(seps)


def test_vertex_to_separator_assignment_is_a_function(corpus):
    for g in corpus:
        _, seps = pipeline(g)
        owner = {}
        for info in seps:
            for v in info.vertices:
                assert owner.setdefault(v, info.vertices) == info.vertices
