"""Shared test helpers: the shipped fixtures, small named graphs, and
independent reference implementations used as oracles."""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

import pytest

from strictchordal import Graph, Separators, parse_graph
from strictchordal.generator import GenParams, random_strictly_chordal

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> Graph:
    return parse_graph((FIXTURE_DIR / name).read_text())


def neighbours(g: Graph) -> list[list[int]]:
    """Sorted neighbour list of each vertex, read off ``g.csr()``."""
    indptr, indices = g.csr()
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def star_graph(leaves: int) -> Graph:
    """Center is vertex 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def bowtie() -> Graph:
    """Two triangles sharing vertex 0."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def double_star() -> Graph:
    """Adjacent centers 0, 1 with three leaves each."""
    return Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])


def diamond() -> Graph:
    """K4 minus the edge {0, 2}; what one true twin of the middle of a path
    on three vertices produces."""
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])


def gem() -> Graph:
    """Path 0-1-2-3 plus dominating vertex 4."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)])


def dart() -> Graph:
    """Diamond on 0..3 (degree three at 1 and 3) plus pendant 4 on vertex 1."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (1, 4)])


def two_k4_sharing_triangle() -> Graph:
    edges = list(combinations([0, 1, 2, 3], 2)) + list(combinations([0, 1, 2, 4], 2))
    return Graph(5, edges)


def k4_chain_three() -> Graph:
    """Two K4 sharing edge {0,1}, third K4 sharing edge {4,5} with the second."""
    edges = (list(combinations([0, 1, 2, 3], 2))
             + list(combinations([0, 1, 4, 5], 2))
             + list(combinations([4, 5, 6, 7], 2)))
    return Graph(8, edges)


def k4_with_two_pendants() -> Graph:
    """K4 on 0..3 plus pendant 4 on 0 and pendant 5 on 1."""
    return Graph(6, list(combinations(range(4), 2)) + [(0, 4), (1, 5)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


class UnionFind:
    """Reference disjoint-set structure, independent of the package."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def uf_components(g: Graph, removed=frozenset()):
    """(count, partition as a set of frozensets) via union-find."""
    removed = set(removed)
    uf = UnionFind(g.n)
    for u, v in g.edges():
        if u not in removed and v not in removed:
            uf.union(u, v)
    groups = {}
    for v in range(g.n):
        if v not in removed:
            groups.setdefault(uf.find(v), set()).add(v)
    return len(groups), {frozenset(members) for members in groups.values()}


def brute_is_peo(g: Graph, order) -> bool:
    """Direct definition: every vertex's later neighbours are pairwise adjacent."""
    position = {v: i for i, v in enumerate(order)}
    adj = [set(nbrs) for nbrs in neighbours(g)]
    for v in order:
        later = [u for u in adj[v] if position[u] > position[v]]
        for a, b in combinations(later, 2):
            if b not in adj[a]:
                return False
    return True


def is_mcs_order(g: Graph, order) -> bool:
    """True iff some maximum-cardinality-search run visits reversed(order).

    Checks ``mcs_order``'s output by replaying the search: each visited
    vertex must carry the maximum weight (visited-neighbour count) among
    unvisited vertices at its turn.  The clique-tree construction is only
    correct for such orderings; a perfect elimination ordering that no MCS
    run produces can group cliques wrongly.
    """
    n = g.n
    indptr, indices = g.csr()
    flat = indices.tolist()
    bounds = indptr.tolist()
    weight = [0] * n
    unvisited_at = [0] * (n + 1)  # unvisited vertices per weight value
    unvisited_at[0] = n
    maxw = 0
    visited = [False] * n
    for v in reversed(order):
        while maxw > 0 and unvisited_at[maxw] == 0:
            maxw -= 1
        wv = weight[v]
        if wv != maxw or visited[v]:
            return False
        visited[v] = True
        unvisited_at[wv] -= 1
        for u in flat[bounds[v]:bounds[v + 1]]:
            if not visited[u]:
                wu = weight[u]
                unvisited_at[wu] -= 1
                wu += 1
                weight[u] = wu
                unvisited_at[wu] += 1
                if wu > maxw:
                    maxw = wu
    return True


def rows(seps: Separators) -> list[frozenset]:
    """Every separator of the table as a frozenset, in table order."""
    return [seps.row(s) for s in range(len(seps))]


def border_mvs_exists(seps: Separators) -> bool:
    """True iff some separator has exactly multiplicity-many boundary
    cliques.

    The boundary cliques of a separator are its leaves in the incidence
    tree, so this is the paper's border separator.  Guaranteed for every
    strictly chordal graph with at least two separators; checked as an
    invariant, not used by the analysis.
    """
    return bool((seps.boundary == seps.mult).any())


def corpus_params(seed: int) -> GenParams:
    rng = random.Random(seed * 37 + 5)
    return GenParams(
        seed=rng.getrandbits(60),
        block_count=rng.randint(1, 4),
        max_block_size=rng.randint(2, 5),
        max_twins=rng.randint(0, 3),
    )


@pytest.fixture(scope="session")
def corpus():
    """Shipped fixtures plus generated strictly chordal graphs across seeds."""
    graphs = [load_fixture(name) for name in ("fig2_g1.gr", "fig2_g2.gr", "fig1.gr")]
    graphs += [random_strictly_chordal(corpus_params(seed)) for seed in range(60)]
    return graphs
