"""Strictly chordal recognition and the clique/separator incidence tree.

A chordal graph is strictly chordal iff its distinct minimal vertex
separators are pairwise disjoint; recognition is a single pass assigning
each vertex at most one separator.  The incidence tree (one node per
maximal clique, one per separator, edges for containment) carries the
mutable labels the scattering-set search needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chordal import CliqueTree, SeparatorInfo
from .errors import InternalError

MVS = 0
TRUE_CLIQUE = 1
FALSE_CLIQUE = 2


def separator_overlap(seps):
    """A witness (vertex, first_separator, second_separator) that two
    distinct separators intersect, or None when all are pairwise disjoint."""
    owner = {}
    for info in seps:
        for v in info.vertices:
            prev = owner.get(v)
            if prev is not None:
                return v, prev, info.vertices
            owner[v] = info.vertices
    return None


@dataclass
class CliqueBipartite:
    """Tree over clique nodes and separator nodes, with search labels.

    Nodes 0..n_cliques-1 are the maximal cliques (clique-tree order); the
    remaining nodes are the separators ordered by smallest contained vertex.
    Adjacency is CSR with neighbour lists ascending.  ``card``, ``mu`` and
    ``status`` are mutated in place by the scattering-set search; ``entry``
    and ``parent`` record the traversal and ``picked`` the separator nodes it
    chose.
    """

    n_cliques: int
    separators: list[SeparatorInfo]
    indptr: list[int]
    neighbors: list[int]
    card: list[int]
    mu: list[int]
    status: list[int]
    entry: list[int]
    parent: list[int]
    picked: list[int] = field(default_factory=list)

    def dot(self) -> str:
        """Graphviz-style dump for debugging."""
        lines = ["graph cb {"]
        for q in range(self.n_cliques):
            lines.append(f'  q{q} [shape=box, label="Q{q} card={self.card[q]}"];')
        for i, info in enumerate(self.separators):
            label = ",".join(str(v) for v in sorted(info.vertices))
            lines.append(f'  s{i} [label="S{{{label}}} mu={info.multiplicity}"];')
        for i in range(len(self.separators)):
            node = self.n_cliques + i
            for w in self.neighbors[self.indptr[node]:self.indptr[node + 1]]:
                lines.append(f"  q{w} -- s{i};")
        lines.append("}")
        return "\n".join(lines)


def build_cb(ct: CliqueTree, seps) -> CliqueBipartite:
    """Clique/separator incidence tree of a strictly chordal graph.

    Raises InternalError if the incidence structure is not a tree, which
    would contradict the class guarantee and indicates an upstream bug.
    """
    q = ct.n_cliques
    s = len(seps)
    n_nodes = q + s
    deg = [0] * n_nodes
    n_edges = 0
    for i, info in enumerate(seps):
        deg[q + i] = len(info.adjacent_cliques)
        n_edges += len(info.adjacent_cliques)
        for c in info.adjacent_cliques:
            deg[c] += 1
    indptr = [0] * (n_nodes + 1)
    for v in range(n_nodes):
        indptr[v + 1] = indptr[v] + deg[v]
    cursor = indptr[:-1].copy()
    neighbors = [0] * (2 * n_edges)
    for i, info in enumerate(seps):
        node = q + i
        for c in info.adjacent_cliques:
            neighbors[cursor[node]] = c
            cursor[node] += 1
            neighbors[cursor[c]] = node
            cursor[c] += 1
    if n_edges != n_nodes - 1:
        raise InternalError(
            f"incidence structure has {n_edges} edges on {n_nodes} nodes; not a tree"
        )
    # connectivity check completes the tree certificate
    seen = [False] * n_nodes
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        v = stack.pop()
        for w in neighbors[indptr[v]:indptr[v + 1]]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    if reached != n_nodes:
        raise InternalError("incidence structure is disconnected; not a tree")
    card = np.diff(ct.clique_indptr).tolist() + [len(info.vertices) for info in seps]
    mu = [0] * q + [info.multiplicity for info in seps]
    return CliqueBipartite(
        n_cliques=q,
        separators=list(seps),
        indptr=indptr,
        neighbors=neighbors,
        card=card,
        mu=mu,
        status=[TRUE_CLIQUE] * q + [MVS] * s,
        entry=[0] * n_nodes,
        parent=[-1] * n_nodes,
    )


def border_mvs_exists(cb: CliqueBipartite) -> bool:
    """True iff some separator has exactly multiplicity-many leaf cliques.

    Guaranteed for every strictly chordal graph with at least two
    separators; exposed as a sanity invariant rather than a branch.
    """
    indptr = cb.indptr
    for i in range(len(cb.separators)):
        node = cb.n_cliques + i
        leaves = sum(
            1
            for c in cb.neighbors[indptr[node]:indptr[node + 1]]
            if indptr[c + 1] - indptr[c] == 1
        )
        if leaves == cb.mu[node]:
            return True
    return False
