import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diamond, neighbours, path_graph
from strictchordal import (
    GenParams,
    analyze,
    brute_force_scattering,
    build_clique_tree,
    connected_components,
    minimal_vertex_separators,
    random_strictly_chordal,
    serialize_graph,
)
from strictchordal.generator import add_true_twins, random_block_graph
from strictchordal.vulnerability import separator_overlap
from strictchordal.vulnerability import CASE_COMPLETE


def assert_block_graph(g):
    """Every biconnected component induces a complete subgraph."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    adj = [set(nbrs) for nbrs in neighbours(g)]
    for component in nx.biconnected_components(h):
        for u, v in combinations(sorted(component), 2):
            assert v in adj[u], (sorted(component), u, v)


def test_params_validation():
    with pytest.raises(ValueError):
        GenParams(seed=1, block_count=0)
    with pytest.raises(ValueError):
        GenParams(seed=1, max_block_size=1)
    with pytest.raises(ValueError):
        GenParams(seed=1, max_twins=-1)
    with pytest.raises(ValueError):
        GenParams(seed=1, target_n=1)


def test_single_block_is_a_clique():
    g = random_block_graph(GenParams(seed=5, block_count=1, max_block_size=4))
    assert g.m == g.n * (g.n - 1) // 2
    assert 2 <= g.n <= 4


def test_chained_two_blocks_form_a_tree():
    g = random_block_graph(GenParams(seed=3, block_count=3, max_block_size=2))
    assert g.m == g.n - 1
    assert connected_components(g)[0] == 1


def test_default_seed_makes_a_block_graph():
    g = random_block_graph(GenParams(seed=42))
    assert connected_components(g)[0] == 1
    assert_block_graph(g)


def test_zero_twins_is_identity():
    g = random_block_graph(GenParams(seed=9, block_count=4))
    h = add_true_twins(g, GenParams(seed=9, block_count=4, max_twins=0))
    assert (h.n, h.m, neighbours(h)) == (g.n, g.m, neighbours(g))


def test_twin_of_path_middle_gives_diamond():
    # one true twin of the middle of a 3-path yields the diamond, whose
    # scattering number is 0 (separator of size two, multiplicity one)
    g = diamond()
    report = analyze(g)
    assert report.scattering_number == 0 == brute_force_scattering(g).value
    assert report.case == "single_mvs"


def test_twins_have_identical_closed_neighbourhoods():
    base = path_graph(3)
    params = GenParams(seed=11, max_twins=2)
    g = add_true_twins(base, params)
    adj = [set(nbrs) for nbrs in neighbours(g)]
    closed = [adj[v] | {v} for v in range(g.n)]
    # every added vertex is a true twin of some original vertex
    for w in range(base.n, g.n):
        assert any(closed[w] == closed[v] for v in range(base.n)), w


def test_generation_is_reproducible():
    params = GenParams(seed=123456, block_count=6, max_block_size=5, max_twins=3)
    a = random_strictly_chordal(params)
    b = random_strictly_chordal(params)
    assert serialize_graph(a) == serialize_graph(b)
    other = random_strictly_chordal(GenParams(seed=123457, block_count=6,
                                              max_block_size=5, max_twins=3))
    assert serialize_graph(a) != serialize_graph(other)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**60), st.integers(1, 6), st.integers(2, 6), st.integers(0, 3))
def test_every_output_passes_recognition(seed, blocks, max_block, max_twins):
    params = GenParams(seed=seed, block_count=blocks,
                       max_block_size=max_block, max_twins=max_twins)
    block = random_block_graph(params)
    assert connected_components(block)[0] == 1
    assert_block_graph(block)
    g = add_true_twins(block, params)
    assert connected_components(g)[0] == 1
    seps = minimal_vertex_separators(build_clique_tree(g))
    assert separator_overlap(seps) is None


def test_target_n_within_twenty_percent():
    for target in (1000, 5000):
        for seed in (1, 2, 3):
            for max_twins in (0, 1, 2):
                g = random_strictly_chordal(
                    GenParams(seed=seed, target_n=target, max_twins=max_twins))
                assert abs(g.n - target) <= 0.2 * target, (target, seed, max_twins, g.n)


def test_corpus_covers_all_dispatch_cases():
    # the small-instance corpus used by the oracle-equivalence drive must
    # reach every branch of the case analysis
    rng = random.Random(0)
    seen = set()
    for trial in range(300):
        params = GenParams(
            seed=rng.getrandbits(60),
            block_count=rng.randint(1, 4),
            max_block_size=rng.randint(2, 5),
            max_twins=rng.randint(0, 3),
        )
        g = random_strictly_chordal(params)
        if g.n > 14:
            continue
        seen.add(analyze(g).case)
        if len(seen) == 5:
            break
    assert seen == {"complete", "single_mvs", "tough_ge_1", "type_a", "type_b"}
