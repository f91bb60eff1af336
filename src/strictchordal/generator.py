"""Deterministic pseudo-random strictly chordal graphs.

A block graph is grown by attaching cliques at random existing vertices;
true twins are then added to its vertices.  The class is closed under both
steps, so every output passes the recognition pipeline.  The same GenParams
always yield the same graph (within this implementation; fixtures meant to
be shared are shipped as files instead).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .graph import MAX_VERTICES, Graph


@dataclass(frozen=True)
class GenParams:
    """Generation knobs; identical params give byte-identical graphs.

    When ``target_n`` is set, blocks are attached until the expected final
    size (after twin inflation) reaches it and ``block_count`` is ignored;
    the hit is soft (about +-20% for large targets).
    """

    seed: int
    block_count: int = 8
    max_block_size: int = 4
    max_twins: int = 2
    target_n: int | None = None

    def __post_init__(self):
        if self.block_count < 1:
            raise ValueError("block_count must be >= 1")
        if self.max_block_size < 2:
            raise ValueError("max_block_size must be >= 2")
        if self.max_twins < 0:
            raise ValueError("max_twins must be >= 0")
        if self.target_n is not None and not 2 <= self.target_n <= MAX_VERTICES:
            raise ValueError(f"target_n must be between 2 and {MAX_VERTICES}")
        # checked before random_block_graph grows its edge list: the base
        # graph has at most this many vertices without target_n, and
        # about target_n + max_block_size with it
        if 1 + self.block_count * (self.max_block_size - 1) > MAX_VERTICES:
            raise ValueError(f"block_count blocks of up to max_block_size vertices "
                             f"could exceed {MAX_VERTICES} vertices")


def _twin_rng(params: GenParams) -> random.Random:
    # distinct stream from the block stream, still fully seed-determined
    return random.Random((params.seed * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & (2**63 - 1))


def random_block_graph(params: GenParams) -> Graph:
    """Connected block graph: every biconnected component is a clique.

    Starts from one clique and attaches further cliques of random size
    (uniform in [2, max_block_size]) at uniformly chosen existing vertices.
    """
    rng = random.Random(params.seed)
    edges = []

    def add_block(members):
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                edges.append((u, v))

    size = rng.randint(2, params.max_block_size)
    add_block(list(range(size)))
    n = size

    target = params.target_n
    base_target = None if target is None else max(2, round(target / (1 + params.max_twins / 2)))
    blocks = 1
    while n < base_target if target is not None else blocks < params.block_count:
        attach = rng.randrange(n)
        size = rng.randint(2, params.max_block_size)
        block = [attach] + list(range(n, n + size - 1))
        add_block(block)
        n += size - 1
        blocks += 1
    return Graph(n, edges, id_base=1)


def add_true_twins(g: Graph, params: GenParams) -> Graph:
    """Add 0..max_twins true twins to each vertex of g.

    The result is the true-twin blow-up of g: each vertex v becomes a clique
    C(v) of v and its twins, and C(u) x C(v) is complete for every edge uv,
    so with a block graph input it is strictly chordal by construction.
    Twins are numbered from g.n on, those of vertex 0 first.
    """
    rng = _twin_rng(params)
    counts = np.array([rng.randint(0, params.max_twins) for _ in range(g.n)], dtype=np.int64)
    n = g.n + int(counts.sum())
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count exceeds {MAX_VERTICES}")
    # members[start[v]:start[v + 1]] = C(v), v first and then its twins
    size = counts + 1
    start = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(size, out=start[1:])
    members = np.empty(n, dtype=np.int64)
    members[start[:-1]] = np.arange(g.n, dtype=np.int64)
    is_twin = np.ones(n, dtype=bool)
    is_twin[start[:-1]] = False
    members[is_twin] = np.arange(g.n, n, dtype=np.int64)
    # one block of |C(a)| x |C(b)| endpoint pairs per class pair (a, b): every
    # edge of g, then every vertex paired with itself (keeping a < b inside)
    indptr, indices = g.csr()
    tails = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(indptr))
    upper = indices > tails
    a = np.concatenate((tails[upper], np.arange(g.n, dtype=np.int64)))
    b = np.concatenate((indices[upper], np.arange(g.n, dtype=np.int64)))
    block = size[a] * size[b]
    pair = np.repeat(np.arange(len(a), dtype=np.int64), block)
    j = np.arange(len(pair), dtype=np.int64) - np.repeat(np.cumsum(block) - block, block)
    i, k = np.divmod(j, size[b][pair])
    keep = (a != b)[pair] | (i < k)
    u = members[start[a][pair] + i][keep]
    w = members[start[b][pair] + k][keep]
    return Graph._from_pairs(n, np.stack((u, w), axis=1), id_base=1)


def random_strictly_chordal(params: GenParams) -> Graph:
    """Random block graph with true twins added."""
    return add_true_twins(random_block_graph(params), params)
