"""The general chordal path, for every input outside the class.

Maximum-cardinality search yields a candidate perfect elimination ordering;
the follower test certifies it; the maximal cliques, the clique tree and the
minimal-vertex-separator multiset all fall out of one pass over the ordering.
The edge-heavy steps run on numpy arrays so large instances stay cheap.
``analyze`` imports this module and runs it on the true-twin quotient only
when ``block_decomposition`` finds no block graph, to find the rejection
and its witness; accepted inputs never load it.  ``chordal`` holds the
tables it builds and never imports it.
"""

from __future__ import annotations

import numpy as np

from .chordal import CliqueTree, Separators, _separator_table, _spread
from .errors import InternalError, NotChordalError, NotConnectedError
from .graph import Graph, _run_starts


def mcs_order(g: Graph) -> list[int]:
    """Maximum-cardinality-search ordering of g, in O(n + m).

    The result is a perfect elimination ordering iff g is chordal.  Vertex 0
    is visited first, so it ends up last in the ordering; later ties within a
    weight fall to the vertex that most recently reached that weight (LIFO).
    The search is the bucket queue of Tarjan and Yannakakis (1984).  It reads
    only the CSR arrays of ``g.csr()``: each visited vertex's neighbours are
    one slice of ``indices`` bounded by ``indptr``, both read through
    memoryviews, which copy nothing and iterate as fast as lists.
    """
    n = g.n
    indptr, indices = g.csr()
    bounds, flat = memoryview(indptr), memoryview(indices)
    # weight[v] counts v's visited neighbours, or is -1 once v is visited.
    # buckets[w] holds vertices that had weight w when pushed; entries whose
    # weight has since risen are stale and skipped on pop.  No weight
    # exceeds the maximum degree.
    weight = [0] * n
    buckets = [list(range(n - 1, -1, -1))]
    buckets += [[] for _ in range(int((indptr[1:] - indptr[:-1]).max(initial=0)))]
    top = 0
    visit = []
    append = visit.append
    for _ in range(n):
        while True:
            bucket = buckets[top]
            while not bucket:
                top -= 1
                bucket = buckets[top]
            v = bucket.pop()
            if weight[v] == top:
                break
        weight[v] = -1
        append(v)
        for u in flat[bounds[v]:bounds[v + 1]]:
            wu = weight[u]
            if wu >= 0:
                wu += 1
                weight[u] = wu
                buckets[wu].append(u)
                if wu > top:
                    top = wu
    visit.reverse()
    return visit


def _orient(g: Graph, order):
    """Orient every edge of g toward its endpoint later in ``order``.

    Reads the CSR arrays only.  Returns ``(ptr, heads, follower, bad)``:
    v's later neighbours are ``heads[ptr[v]:ptr[v + 1]]``, ascending, and
    ``follower[v]`` is the one of least position (-1 if none).  ``bad``
    holds the triples (u, follower(u), w) failing the follower test, by u and
    then by w's position: every later neighbour w of u other than its
    follower must be adjacent to the follower, so ``bad`` is empty iff
    ``order`` is a perfect elimination ordering.
    """
    n = g.n
    indptr, indices = g.csr()
    order = np.asarray(order, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n, dtype=np.int64)
    tails = np.arange(n, dtype=np.int64).repeat(indptr[1:] - indptr[:-1])
    head_pos = pos[indices]
    # integer takes: boolean indexing by this irregular mask is much slower
    later = (head_pos > pos[tails]).nonzero()[0]
    tails = tails[later]
    heads = indices[later]
    head_pos = head_pos[later]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.bincount(tails, minlength=n).cumsum(out=ptr[1:])
    has_later = ptr[1:] > ptr[:-1]
    follower = np.subtract(has_later, 1, dtype=np.int64)  # -1 without later neighbours
    if len(tails):
        follower[has_later] = order[np.minimum.reduceat(head_pos, ptr[:-1][has_later])]
    # w comes after follower(u), so the edge (follower(u), w), if present, is
    # one of the oriented keys tail * n + head, sorted as tails and heads ascend
    keys = tails * n + heads
    fu = follower[tails]
    query = fu * n + heads
    found = keys[np.minimum(keys.searchsorted(query), len(keys) - 1)] == query
    fail = ~found & (heads != fu)
    u, fu, w = tails[fail], fu[fail], heads[fail]
    if len(u):
        by_pos = np.lexsort((pos[w], u))
        u, fu, w = u[by_pos], fu[by_pos], w[by_pos]
    return ptr, heads, follower, (u, fu, w)


def verify_peo(g: Graph, order) -> bool:
    """True iff ``order`` is a perfect elimination ordering of g; raises
    ValueError if it is not a permutation of the vertices."""
    if not np.array_equal(np.sort(np.asarray(order, dtype=np.int64)), np.arange(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    return len(_orient(g, order)[-1][0]) == 0


def find_chordless_cycle(g: Graph, u: int, a: int, b: int):
    """Chordless cycle through u given non-adjacent a, b in N(u), or None.

    The interior of the cycle is a shortest a-b path avoiding N[u] outside
    {a, b}; shortest paths are induced, and u sees only a and b on the cycle.
    Neighbours are read as slices of the CSR arrays, through memoryviews.
    """
    indptr, indices = g.csr()
    bounds, flat = memoryview(indptr), memoryview(indices)
    # N[u] less a and b is marked reached, so the search never enters it
    parent = dict.fromkeys(flat[bounds[u]:bounds[u + 1]], u)
    parent[u] = u
    del parent[b]
    parent[a] = None
    queue = [a]
    for v in queue:  # grows while it is read
        if v == b:
            break
        for x in flat[bounds[v]:bounds[v + 1]]:
            if x not in parent:
                parent[x] = v
                queue.append(x)
    if b not in parent:
        return None
    path = []
    v = b
    while v is not None:
        path.append(v)
        v = parent[v]
    path.append(u)  # cycle: u, a, ..., b back to u
    path.reverse()
    return path


def build_clique_tree(g: Graph) -> CliqueTree:
    """Maximal cliques and a clique tree of a connected chordal graph, built
    from ``mcs_order(g)`` with every vertex a class of its own.

    Raises NotConnectedError, or NotChordalError carrying a chordless-cycle
    witness when one could be recovered.  Cliques appear in the order their
    representatives are visited; each non-root clique is attached to the
    clique its representative's follower was numbered into.  ``analyze``
    builds its tree the same way on the true-twin quotient, so its clique
    numbering (``VulnerabilityReport.clique_tree``) may differ from this one.
    """
    ids = np.arange(g.n + 1, dtype=np.int64)
    return _clique_tree_from_mcs(g, mcs_order(g), ids, ids[:-1])


def _clique_tree_from_mcs(g: Graph, order, class_ptr, members) -> CliqueTree:
    """The clique tree of g from its search order, vertex x of g standing
    for the class ``members[class_ptr[x]:class_ptr[x + 1]]``; a chordless
    cycle is reported through the first member of each class."""
    n = g.n
    order = np.asarray(order, dtype=np.int64)
    later_ptr, heads, follower, (bad_u, bad_f, bad_w) = _orient(g, order)
    sizes = later_ptr[1:] - later_ptr[:-1]
    # a connected graph has exactly one vertex without later neighbours (the
    # last of the ordering); each extra one starts another component
    if n == 0 or int((sizes == 0).sum()) != 1:
        raise NotConnectedError()
    if len(bad_u):
        cycle = None
        for u, a, b in zip(bad_u.tolist(), bad_f.tolist(), bad_w.tolist()):
            cycle = find_chordless_cycle(g, u, a, b)
            if cycle is not None:
                break
        if cycle is not None:
            cycle = members[class_ptr[cycle]].tolist()
        raise NotChordalError("graph is not chordal", cycle=cycle)

    # sizes[v] is v's weight when the search visited it.  Visit i joins the
    # clique of visit i-1, which has weight[i-1] + 1 vertices, when its weight
    # is that size (weight - i stays the same) and starts a new clique otherwise.
    visit = order[::-1]
    weight = sizes[visit]
    if (weight[1:] > weight[:-1] + 1).any():
        raise InternalError("MCS weight exceeded the current clique size")
    starts = _run_starts(weight - np.arange(n))
    clique_of = np.empty(n, dtype=np.int64)
    clique_of[visit] = starts.cumsum() - 1
    clique_ptr = np.concatenate((starts.nonzero()[0], [n]))
    reps = visit[clique_ptr[:-1]]
    # clique q = the vertices numbered into it, in visit order, then its
    # overlap with the parent: its representative's later neighbours, ascending
    sep_indices, sep_ptr = _spread(reps, later_ptr, heads)
    # each non-root clique hangs off the clique of its representative's follower
    edge_child = np.arange(1, len(reps), dtype=np.int64)
    return CliqueTree(visit, clique_ptr, sep_indices, sep_ptr, edge_child,
                      clique_of[follower[reps[1:]]], class_ptr, members)


def minimal_vertex_separators(ct: CliqueTree) -> Separators:
    """Distinct minimal vertex separators with multiplicities, as a
    ``Separators`` table.

    Each tree edge's row of classes is read in place from ``sep_indices``,
    the rows are sorted and deduplicated, and each distinct row is spread
    into its vertices; the multiplicities sum to the number of tree edges.
    On a block duplicate graph every row is one class: one sort orders them.
    The table is then assembled by ``_separator_table``, which
    ``block_decomposition`` ends in too.
    """
    n_edges = len(ct.edge_child)
    vals = ct.sep_indices
    heads = ct.sep_ptr[ct.edge_child]  # edge e's row is vals[heads[e]:heads[e] + lens[e]]
    lens = ct.sep_ptr[ct.edge_child + 1] - heads
    # rows in lexicographic order (a row before the longer rows it begins):
    # by the first class, then run by run of equal prefixes by each later
    # column over the rows reaching it, so work and memory follow the entries
    order = vals[heads].argsort(kind="stable")
    key = vals[heads[order]]
    fresh = _run_starts(key)  # a run of equal prefixes starts here
    at = np.arange(n_edges, dtype=np.int64)  # positions of the rows still read
    for j in range(1, int(lens.max(initial=0))):
        at = at[lens[order[at]] >= j]  # whole runs: a shorter row's run ended
        rows = order[at]
        key = np.where(lens[rows] > j, vals.take(heads[rows] + j, mode="clip"), -1)
        by_key = np.lexsort((key, fresh[at].cumsum()))
        order[at], key = rows[by_key], key[by_key]
        fresh[at[1:]] |= key[1:] != key[:-1]
    sid = np.empty(n_edges, dtype=np.int64)
    sid[order] = fresh.cumsum() - 1
    firsts = order[fresh]  # one tree edge per distinct row, in row order
    # each row's classes spread into vertices, sorted within the row
    classes, row_ptr = _spread(ct.edge_child[firsts], ct.sep_ptr, vals)
    vertices, ends = _spread(classes, ct.class_ptr, ct.members)
    row_ptr = ends[row_ptr]
    sizes = row_ptr[1:] - row_ptr[:-1]
    vertices = vertices[np.lexsort((vertices, np.arange(len(firsts)).repeat(sizes)))]
    return _separator_table(ct, ct.class_ptr[1:] - ct.class_ptr[:-1], sid, row_ptr, vertices)


def separator_overlap(seps: Separators):
    """A witness (vertex, first_separator, second_separator) that two
    distinct separators intersect, or None when all are pairwise disjoint,
    as they are exactly when the chordal graph is strictly chordal.

    The second separator is the first in table order to share a vertex with
    an earlier one, the vertex is its least such vertex, and the first
    separator is the earliest one holding that vertex.
    """
    vertices = seps.indices
    if np.bincount(vertices).max(initial=0) < 2:
        return None
    # the separator of each position, and the first separator of each vertex
    owner = np.arange(len(seps)).repeat(seps.sizes)
    first = np.empty(int(vertices.max()) + 1, dtype=np.int64)
    first[vertices] = len(seps)
    np.minimum.at(first, vertices, owner)
    at = (owner > first[vertices]).nonzero()[0][0]
    v = int(vertices[at])
    return v, seps.row(first[v]), seps.row(owner[at])
