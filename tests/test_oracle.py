import random
from fractions import Fraction

import pytest

from conftest import (
    bowtie,
    complete_graph,
    corpus_params,
    cycle_graph,
    load_fixture,
    random_graph,
    rows,
    star_graph,
    two_k4_sharing_triangle,
)
from strictchordal import (
    brute_force_scattering,
    brute_force_toughness,
    build_clique_tree,
    connected_components,
    minimal_vertex_separators,
    restricted_scattering,
    restricted_toughness,
)
from strictchordal.errors import CompleteGraphError, TooLargeError
from strictchordal.generator import random_strictly_chordal
from strictchordal.oracle import (
    adjacency_masks,
    component_count_table,
    count_components_mask,
)


def test_c4_scattering_zero_with_opposite_pair():
    # definition-level: works on non-chordal inputs too
    result = brute_force_scattering(cycle_graph(4))
    assert result.value == 0
    assert result.witness == frozenset({0, 2})
    assert result.subsets_examined == 16


def test_star_oracle_values():
    g = star_graph(3)
    assert brute_force_scattering(g).value == 2
    assert brute_force_scattering(g).witness == frozenset({0})
    assert brute_force_toughness(g).value == Fraction(1, 3)


def test_fig2_g2_oracle():
    g = load_fixture("fig2_g2.gr")
    result = brute_force_scattering(g)
    assert result.value == 5
    assert result.witness == frozenset({1, 2, 3, 4})
    assert brute_force_toughness(g).value == Fraction(1, 4)


def test_fig2_g1_oracle():
    g = load_fixture("fig2_g1.gr")
    assert brute_force_scattering(g).value == 1
    assert brute_force_toughness(g).value == Fraction(1, 2)


def test_bowtie_and_shared_triangle():
    assert brute_force_scattering(bowtie()).value == 1
    assert brute_force_scattering(two_k4_sharing_triangle()).value == -1
    assert brute_force_toughness(two_k4_sharing_triangle()).value == Fraction(3, 2)


def test_complete_graph_raises():
    with pytest.raises(CompleteGraphError):
        brute_force_scattering(complete_graph(5))
    with pytest.raises(CompleteGraphError):
        brute_force_toughness(complete_graph(5))
    with pytest.raises(CompleteGraphError):
        brute_force_scattering(complete_graph(1))


def test_size_cap_and_env_override():
    g = random_strictly_chordal(corpus_params(3))
    with pytest.raises(TooLargeError):
        brute_force_scattering(g, cap=g.n - 1)


def test_component_table_matches_direct_recount():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, 0.4)
        table = component_count_table(g)
        masks = adjacency_masks(g)
        for _ in range(50):
            survivors = rng.randrange(1 << n)
            assert table[survivors] == count_components_mask(masks, survivors)
            removed = {v for v in range(n) if not survivors >> v & 1}
            assert table[survivors] == connected_components(g, removed)[0]


def test_witness_attains_value_and_sign_law():
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, 0.5)
        if connected_components(g)[0] != 1:
            continue
        try:
            sc = brute_force_scattering(g)
            tau = brute_force_toughness(g)
        except CompleteGraphError:
            continue
        checked += 1
        count, _ = connected_components(g, sc.witness)
        assert count - len(sc.witness) == sc.value
        count, _ = connected_components(g, tau.witness)
        assert Fraction(len(tau.witness), count) == tau.value
        # sign law: toughness >= 1 iff scattering number <= 0
        assert (tau.value >= 1) == (sc.value <= 0)
    assert checked >= 20


def test_restricted_oracle_matches_full_on_strictly_chordal():
    # validates the separator-union property: restricting candidates to
    # unions of minimal vertex separators preserves both optima
    hits = 0
    for seed in range(60):
        g = random_strictly_chordal(corpus_params(seed))
        if g.n > 14:
            continue
        seps = rows(minimal_vertex_separators(build_clique_tree(g)))
        if not seps:
            continue
        hits += 1
        assert restricted_scattering(g, seps).value == brute_force_scattering(g).value
        assert restricted_toughness(g, seps).value == brute_force_toughness(g).value
    assert hits >= 15


def test_fig1_via_restricted_oracle():
    # n=23 exceeds the default cap; the class-fast oracle handles it
    g = load_fixture("fig1.gr")
    seps = rows(minimal_vertex_separators(build_clique_tree(g)))
    sc = restricted_scattering(g, seps)
    tau = restricted_toughness(g, seps)
    assert sc.value == -4
    assert sc.witness == frozenset(range(10, 17))
    assert tau.value == Fraction(2)
    assert tau.witness == frozenset(range(10))
    assert sc.subsets_examined == 3


def test_restricted_oracle_set_cap():
    g = load_fixture("fig2_g2.gr")
    seps = rows(minimal_vertex_separators(build_clique_tree(g)))
    with pytest.raises(TooLargeError):
        restricted_scattering(g, seps, max_sets=3)
