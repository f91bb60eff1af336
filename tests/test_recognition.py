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
    rows,
    star_graph,
)
from strictchordal import (
    build_clique_tree,
    minimal_vertex_separators,
)
from strictchordal.general import separator_overlap


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
    assert set(rows(seps)) == {
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
    tree_seps = [frozenset(ct.separator_slice(e).tolist()) for e in range(len(ct.edge_child))]
    for i, sep in enumerate(rows(seps)):
        assert seps.sizes[i] == len(sep)
        assert seps.mult[i] == tree_seps.count(sep)


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
    # degree of a separator node is its multiplicity + 1
    assert (deg[q:] == seps.mult + 1).all()
    sets = rows(seps)
    cliques = [set(ct.clique(c).tolist()) for c in range(q)]
    # the pairs run by separator and then clique, without repeats, and every
    # neighbour of a separator is a clique node containing it
    pairs = list(zip(seps.pair_sep.tolist(), seps.pair_clique.tolist()))
    assert pairs == sorted(set(pairs))
    for s, c in pairs:
        assert c < q
        assert sets[s] <= cliques[c]
    # separator nodes are ordered by smallest contained vertex
    mins = [min(sep) for sep in sets]
    assert mins == sorted(mins)
    # leaf clique nodes contain exactly one separator and are the boundary
    # cliques counted during separator extraction
    leaf_counts = {i: 0 for i in range(len(seps))}
    for s, c in pairs:
        if deg[c] == 1:
            leaf_counts[s] += 1
            inside = [i for i, sep in enumerate(sets) if sep <= cliques[c]]
            assert inside == [s]
    assert seps.boundary.tolist() == [leaf_counts[i] for i in range(len(seps))]
    if len(seps) > 1:
        assert border_mvs_exists(seps)


def test_cb_invariants_on_fixtures_and_corpus(corpus):
    for g in corpus:
        _assert_cb_invariants(g)


def test_border_mvs_on_fig2_g2():
    _, seps = pipeline(load_fixture("fig2_g2.gr"))
    assert border_mvs_exists(seps)
    # each branch separator has both its outer cliques as leaves
    table = {min(sep): s for s, sep in enumerate(rows(seps))}
    assert seps.boundary[table[1]] == 2 == seps.mult[table[1]]


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
        for sep in rows(seps):
            for v in sep:
                assert owner.setdefault(v, sep) == sep
